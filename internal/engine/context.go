// Package engine is ST4ML's distributed dataflow substrate: an in-memory,
// Spark-like execution engine built from scratch on goroutines. It provides
// lazy generic RDDs with narrow transformations, keyed shuffles that pay an
// honest serialization cost through the binary codec, broadcast variables,
// and per-stage metrics.
//
// The engine stands in for Apache Spark in this reproduction (see
// DESIGN.md). A Context models a cluster: Slots is the total number of
// executor cores; every action schedules one task per partition onto the
// slot pool, so load imbalance across partitions lengthens the stage
// makespan exactly as it does on a real cluster.
//
// # Fault model
//
// Task execution is fault tolerant the way Spark's is, minus lineage
// recomputation (partitions are deterministic closures over in-memory
// parents, so re-running a task re-derives its input for free):
//
//   - A failed task attempt — a returned error, a panic in user code, or an
//     injected fault — is retried up to Config.MaxTaskAttempts times with
//     exponential backoff. Only when every attempt fails does the job abort,
//     with a *TaskError carrying the stage name and task index.
//   - With Config.Speculation enabled, once a stage is mostly complete a
//     task running far beyond the median task time gets a speculative
//     duplicate; whichever attempt finishes first commits its result, and
//     the loser's result is discarded. Commits are exactly-once per task.
//   - Shuffle blocks travel in length+checksum frames; a block that fails
//     verification is re-read before the task is failed.
//
// A deterministic FaultPlan (Config.Faults) injects all of these failure
// classes from a seed for reproducible chaos testing.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"st4ml/internal/trace"
)

// Config sizes the simulated cluster and its fault-tolerance behavior.
type Config struct {
	// Slots is the number of concurrently executing tasks (cluster cores).
	// 0 means GOMAXPROCS.
	Slots int
	// DefaultParallelism is the partition count used when callers pass 0.
	// 0 means 2×Slots.
	DefaultParallelism int

	// MaxTaskAttempts bounds how many times a failing task is tried before
	// the job aborts (Spark's spark.task.maxFailures). 0 means 4.
	MaxTaskAttempts int
	// RetryBackoff is the sleep before a task's first retry, doubling on
	// each further retry. 0 means 1ms; negative disables backoff.
	RetryBackoff time.Duration

	// Speculation enables straggler mitigation: once SpeculationQuantile
	// of a stage's tasks have committed, any task running longer than
	// SpeculationMultiplier × the median committed task time gets one
	// speculative duplicate, and the first finisher commits.
	Speculation bool
	// SpeculationQuantile is the completed fraction required before
	// duplicates launch. 0 means 0.75.
	SpeculationQuantile float64
	// SpeculationMultiplier scales the median task time into the straggler
	// threshold. 0 means 1.5.
	SpeculationMultiplier float64
	// SpeculationInterval is the straggler check period. 0 means 1ms.
	SpeculationInterval time.Duration

	// Faults optionally injects deterministic failures, stragglers, and
	// shuffle corruption (see FaultPlan).
	Faults *FaultPlan

	// Tracer, when set, records a span per stage, task attempt, and shuffle
	// side (see package trace). Nil — the default — disables tracing at zero
	// cost: the no-op span path performs no allocations.
	Tracer *trace.Tracer
}

// Context owns the executor pool and metrics for one logical cluster. It is
// safe for concurrent use.
type Context struct {
	slots      int
	defaultPar int
	sem        chan struct{}
	// Metrics is shared by pointer so trace-scoped shallow copies of the
	// Context (WithTracer) aggregate into the same counters.
	Metrics *Metrics

	maxTaskAttempts int
	retryBackoff    time.Duration
	speculation     bool
	specQuantile    float64
	specMultiplier  float64
	specInterval    time.Duration
	faults          *FaultPlan

	tracer      *trace.Tracer
	traceParent trace.SpanID
}

// New creates a Context with the given config.
func New(cfg Config) *Context {
	slots := cfg.Slots
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	par := cfg.DefaultParallelism
	if par <= 0 {
		par = 2 * slots
	}
	attempts := cfg.MaxTaskAttempts
	if attempts <= 0 {
		attempts = 4
	}
	backoff := cfg.RetryBackoff
	if backoff == 0 {
		backoff = time.Millisecond
	} else if backoff < 0 {
		backoff = 0
	}
	quantile := cfg.SpeculationQuantile
	if quantile <= 0 {
		quantile = 0.75
	}
	multiplier := cfg.SpeculationMultiplier
	if multiplier <= 0 {
		multiplier = 1.5
	}
	interval := cfg.SpeculationInterval
	if interval <= 0 {
		interval = time.Millisecond
	}
	return &Context{
		slots:           slots,
		defaultPar:      par,
		sem:             make(chan struct{}, slots),
		Metrics:         new(Metrics),
		maxTaskAttempts: attempts,
		retryBackoff:    backoff,
		speculation:     cfg.Speculation,
		specQuantile:    quantile,
		specMultiplier:  multiplier,
		specInterval:    interval,
		faults:          cfg.Faults,
		tracer:          cfg.Tracer,
	}
}

// Slots returns the executor-core count.
func (c *Context) Slots() int { return c.slots }

// DefaultParallelism returns the default partition count.
func (c *Context) DefaultParallelism() int { return c.defaultPar }

// Tracer returns the context's tracer (nil when tracing is disabled).
func (c *Context) Tracer() *trace.Tracer { return c.tracer }

// WithTracer returns a shallow copy of c that records spans on tr, parented
// under parent. The copy shares the slot pool, metrics, and fault plan, so
// concurrent queries can each carry their own trace scope while executing
// on one cluster. A nil tr returns c unchanged.
func (c *Context) WithTracer(tr *trace.Tracer, parent trace.SpanID) *Context {
	if tr == nil {
		return c
	}
	scoped := *c
	scoped.tracer = tr
	scoped.traceParent = parent
	return &scoped
}

// WithSpan scopes c under sp (see WithTracer). A nil span returns c
// unchanged, so call sites need no tracing-enabled branch.
func (c *Context) WithSpan(sp *trace.Span) *Context {
	if sp == nil {
		return c
	}
	return c.WithTracer(c.tracer, sp.ID())
}

// StartSpan begins a span under the context's trace parent. On an untraced
// context it returns the no-op nil span.
func (c *Context) StartSpan(name string, attrs ...trace.Attr) *trace.Span {
	return c.tracer.StartSpan(c.traceParent, name, attrs...)
}

// minSpeculationThreshold keeps near-zero medians from marking every
// still-running task a straggler.
const minSpeculationThreshold = time.Millisecond

// taskState tracks one task of a running stage.
type taskState struct {
	// start is the primary attempt's start time in unix nanos (atomic);
	// 0 until the task's goroutine begins running.
	start atomic.Int64
	// claimed flips true exactly once, by the attempt that wins the right
	// to commit; every other runner of the task then stands down.
	claimed atomic.Bool
	// committed flips true once the winning commit completed.
	committed atomic.Bool
	// dup records that a speculative duplicate was launched (stage mu).
	dup bool
	// err is the task's permanent failure, if any (stage mu).
	err *TaskError
}

// stageState is the shared bookkeeping of one runStage call.
type stageState struct {
	c     *Context
	name  string
	tasks int
	fn    func(task int) (commit func(), records int64, err error)
	span  *trace.Span

	mu        sync.Mutex
	completed int
	durations []time.Duration // committed attempt durations, for the median
	longest   time.Duration
	records   atomic.Int64 // records produced by committed tasks
	state     []taskState
	dupWG     sync.WaitGroup
}

// runStage executes fn for every task index in [0, tasks) on the slot pool
// and blocks until all complete. fn does the task's work and returns a
// commit closure that publishes its result plus the number of records the
// task produced; runStage guarantees the commit runs exactly once per task
// even when retries or speculative duplicates race. A task attempt that
// returns an error or panics is retried with backoff; a task whose every
// attempt fails aborts the stage with a *TaskError naming the task.
// Metrics are charged per committed task, and with a tracer configured the
// stage and every task attempt record spans.
func (c *Context) runStage(name string, tasks int, fn func(task int) (commit func(), records int64, err error)) error {
	if tasks == 0 {
		return nil
	}
	start := time.Now()
	st := &stageState{c: c, name: name, tasks: tasks, fn: fn, state: make([]taskState, tasks)}
	st.span = c.tracer.StartSpan(c.traceParent, trace.SpanStagePrefix+name, trace.Int("tasks", int64(tasks)))

	stop := make(chan struct{})
	var monWG sync.WaitGroup
	if c.speculation && tasks > 1 {
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			ticker := time.NewTicker(c.specInterval)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
					st.speculate()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		i := i
		c.sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-c.sem
				wg.Done()
			}()
			st.state[i].start.Store(time.Now().UnixNano())
			st.runAttempts(i, false)
		}()
	}
	wg.Wait()
	close(stop)
	monWG.Wait()
	st.dupWG.Wait()

	var stageErr error
	for i := range st.state {
		if !st.state[i].committed.Load() {
			stageErr = st.state[i].err
			break
		}
	}
	recs := st.records.Load()
	st.span.End(trace.Int("records", recs))
	c.Metrics.addStage(StageStat{
		Name:        name,
		Tasks:       tasks,
		Records:     recs,
		Wall:        time.Since(start),
		LongestTask: st.longest,
	})
	return stageErr
}

// runAttempts drives one runner (primary or speculative duplicate) through
// the bounded retry loop for task i.
func (s *stageState) runAttempts(i int, speculative bool) {
	c := s.c
	ts := &s.state[i]
	var lastErr error
	for attempt := 0; attempt < c.maxTaskAttempts; attempt++ {
		if ts.claimed.Load() {
			return
		}
		if attempt > 0 {
			c.Metrics.taskRetries.Add(1)
			if c.retryBackoff > 0 {
				time.Sleep(c.retryBackoff << (attempt - 1))
			}
		}
		if !speculative {
			if d := c.faults.taskDelay(s.name, i, attempt); d > 0 {
				time.Sleep(d)
			}
		}
		// The attempt span starts after backoff/fault delays (so its duration
		// is actual task work) and after the retry metric above, keeping the
		// span count with attempt>0 equal to Metrics.TaskRetries.
		sp := s.span.Child(trace.SpanTask,
			trace.Int("task", int64(i)),
			trace.Int("attempt", int64(attempt)),
			trace.Bool("speculative", speculative))
		t0 := time.Now()
		commit, records, err := s.callTask(i, attempt)
		if err != nil {
			lastErr = err
			sp.End(trace.Bool("committed", false), trace.Str("error", err.Error()))
			continue
		}
		// Exactly-once commit: the first finisher claims the task; losers
		// discard their result. A panic inside the commit closure (user
		// code in ForeachPartition) is a permanent failure — the effect
		// may be partial, so it must not be retried.
		if !ts.claimed.CompareAndSwap(false, true) {
			sp.End(trace.Bool("committed", false))
			return
		}
		if cerr := runCommit(commit); cerr != nil {
			sp.End(trace.Bool("committed", false), trace.Str("error", cerr.Error()))
			s.mu.Lock()
			ts.err = &TaskError{Stage: s.name, Task: i, Attempts: attempt + 1, Err: cerr}
			s.mu.Unlock()
			return
		}
		d := time.Since(t0)
		ts.committed.Store(true)
		s.records.Add(records)
		sp.End(trace.Bool("committed", true), trace.Int("records", records))
		c.Metrics.tasksRun.Add(1)
		c.Metrics.taskNanos.Add(int64(d))
		if speculative {
			c.Metrics.specWins.Add(1)
		}
		s.mu.Lock()
		s.completed++
		s.durations = append(s.durations, d)
		if d > s.longest {
			s.longest = d
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	if ts.err == nil {
		ts.err = &TaskError{Stage: s.name, Task: i, Attempts: c.maxTaskAttempts, Err: lastErr}
	}
	s.mu.Unlock()
}

// runCommit executes a task's commit closure, converting a panic into an
// error.
func runCommit(commit func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("commit panicked: %v", rec)
		}
	}()
	if commit != nil {
		commit()
	}
	return nil
}

// callTask runs one attempt of task i, converting panics and injected
// faults into errors.
func (s *stageState) callTask(i, attempt int) (commit func(), records int64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			commit, records, err = nil, 0, fmt.Errorf("task %d panicked: %v", i, rec)
		}
	}()
	if err := s.c.faults.failTask(s.name, i, attempt); err != nil {
		return nil, 0, err
	}
	return s.fn(i)
}

// speculate is the straggler check: once enough tasks committed, any task
// running far past the median committed time gets one duplicate runner.
func (s *stageState) speculate() {
	s.mu.Lock()
	need := int(math.Ceil(s.c.specQuantile * float64(s.tasks)))
	if s.completed < need || s.completed == s.tasks || len(s.durations) == 0 {
		s.mu.Unlock()
		return
	}
	threshold := time.Duration(s.c.specMultiplier * float64(median(s.durations)))
	if threshold < minSpeculationThreshold {
		threshold = minSpeculationThreshold
	}
	now := time.Now().UnixNano()
	var launch []int
	for i := range s.state {
		ts := &s.state[i]
		if ts.claimed.Load() || ts.dup {
			continue
		}
		started := ts.start.Load()
		if started == 0 || time.Duration(now-started) <= threshold {
			continue
		}
		ts.dup = true
		s.dupWG.Add(1)
		launch = append(launch, i)
	}
	s.mu.Unlock()
	for _, i := range launch {
		i := i
		s.c.Metrics.specLaunched.Add(1)
		go func() {
			defer s.dupWG.Done()
			s.c.sem <- struct{}{}
			defer func() { <-s.c.sem }()
			s.runAttempts(i, true)
		}()
	}
}

// median returns the middle value of ds (not necessarily sorted).
func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// must panics with err — the job-abort path actions take when a stage
// fails permanently. Wrap action calls in Try to receive it as an error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
