// Package serve is the ST feature-serving daemon: the long-running tier
// that turns the repository's one-shot Selection pipeline into an
// interactive service. Where stquery rebuilds an engine.Context, re-reads
// metadata.json, and re-indexes partitions for every invocation, a Server
// amortizes all of that across requests:
//
//   - a Catalog pins each dataset's partition metadata in memory behind an
//     RWMutex, revalidated by file mtime and manifest generation (appends,
//     compactions and re-ingests are picked up without a restart and bump
//     the dataset generation);
//   - a byte-budgeted LRU Cache holds decoded partition files — each base
//     or delta pinned with its records' boxes plus one box per run of 16
//     consecutive records, built on first touch, all keyed by file name so
//     an append evicts nothing — and query results with their records
//     already in wire form, so hot windows skip disk (and the engine)
//     entirely;
//   - every query executes as engine tasks on one shared engine.Context,
//     exercising the engine's multi-job concurrency, retries included;
//   - an Admission controller bounds in-flight queries and queue depth and
//     sheds the excess with 429 (queue full) or 504 (deadline passed),
//     keeping tail latency bounded under overload.
//
// Every query kind — /query exact and approx, /subquery in both modes —
// runs through one pipeline (execute): resolve, revalidate, fence, result
// cache, admission, run on the shared engine under the deadline.
//
// Endpoints: POST /query, POST /subscribe, POST /subquery, GET /datasets,
// GET /metrics, GET /healthz, GET /readyz.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"st4ml/internal/engine"
	"st4ml/internal/subscribe"
	"st4ml/internal/trace"
)

// Config tunes a Server. Zero values pick serving defaults.
type Config struct {
	// Ctx is the shared execution engine. Nil builds a default Context.
	Ctx *engine.Context
	// CacheBytes is the joint partition+result cache budget.
	// 0 means 256 MiB; negative disables caching.
	CacheBytes int64
	// MaxInFlight is the concurrent query bound. 0 means 2×engine slots.
	MaxInFlight int
	// MaxQueue is how many queries may wait for a slot before new arrivals
	// are shed with 429. 0 means 4×MaxInFlight; negative means no queue.
	MaxQueue int
	// Timeout is the per-request deadline; a query that cannot finish (or
	// even start) in time is answered 504. 0 means 30s.
	Timeout time.Duration
	// ShardName identifies this daemon in cluster sub-query responses and
	// stitched trace spans ("" for a standalone daemon).
	ShardName string
	// SubscribeQueue is the per-subscriber bounded update queue for the
	// POST /subscribe online path; when it fills, the oldest pending event
	// is dropped and the subscriber resyncs. 0 means subscribe.DefaultQueue.
	SubscribeQueue int
	// SubscribePoll is the manifest-poll cadence that picks up delta
	// commits made by other processes (in-process commits push instantly
	// via the storage commit hook). 0 means 250ms; negative disables
	// polling, leaving the hook as the only trigger.
	SubscribePoll time.Duration
	// Tracer, when non-nil, records the hub's subscribe:match and
	// subscribe:push spans (explain/trace integration for the online path).
	Tracer *trace.Tracer
}

// Server is the serving daemon's state: catalog, cache, admission, and the
// shared engine context, plus request counters in the engine.Metrics style.
type Server struct {
	ctx       *engine.Context
	catalog   *Catalog
	cache     *Cache
	adm       *Admission
	hub       *subscribe.Hub
	timeout   time.Duration
	started   time.Time
	shardName string

	// hookCancels unregisters the storage commit hooks AddDataset installed
	// (see Close); closeOnce makes Close idempotent.
	hookMu      sync.Mutex
	hookCancels []func()
	closeOnce   sync.Once

	Front
	subscribes     atomic.Int64
	resultHits     atomic.Int64
	resultMisses   atomic.Int64
	partitionLoads atomic.Int64
	timeouts       atomic.Int64
	subqueries     atomic.Int64
	genConflicts   atomic.Int64

	// lastGen tracks each dataset's observed metadata generation, so a
	// reload triggers eager cache invalidation (see noteGeneration).
	genMu   sync.Mutex
	lastGen map[string]int64
}

// NewServer builds a Server from cfg.
func NewServer(cfg Config) *Server {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = engine.New(engine.Config{})
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = 256 << 20
	}
	inFlight := cfg.MaxInFlight
	if inFlight <= 0 {
		inFlight = 2 * ctx.Slots()
	}
	queue := cfg.MaxQueue
	if queue == 0 {
		queue = 4 * inFlight
	} else if queue < 0 {
		queue = 0
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	s := &Server{
		ctx:       ctx,
		catalog:   NewCatalog(),
		cache:     NewCache(cacheBytes),
		adm:       NewAdmission(inFlight, queue),
		hub:       subscribe.NewHub(subscribe.Config{Queue: cfg.SubscribeQueue, Tracer: cfg.Tracer}),
		timeout:   timeout,
		started:   time.Now(),
		shardName: cfg.ShardName,
		lastGen:   map[string]int64{},
	}
	poll := cfg.SubscribePoll
	if poll == 0 {
		poll = 250 * time.Millisecond
	}
	if poll > 0 {
		s.hub.StartPolling(poll)
	}
	return s
}

// SetDraining marks the daemon as draining (or not): readiness turns 503
// and new queries are refused, while in-flight work completes. Called by
// the daemon's SIGTERM handler before http.Server.Shutdown. Entering the
// drain also closes every live subscription, so long-lived SSE streams end
// immediately instead of pinning the drain until its timeout cuts them.
func (s *Server) SetDraining(v bool) {
	s.Front.SetDraining(v)
	if v {
		s.hub.CloseAll()
	}
}

// Catalog exposes the server's dataset catalog.
func (s *Server) Catalog() *Catalog { return s.catalog }

// Engine exposes the shared execution context.
func (s *Server) Engine() *engine.Context { return s.ctx }

// AddDataset registers the dataset at dir under name, decoded by the named
// stdata schema, and wires it into the subscription hub (commit hook +
// notifier).
func (s *Server) AddDataset(name, schemaName, dir string) error {
	d, err := s.catalog.Register(name, schemaName, dir)
	if err != nil {
		return err
	}
	s.attachSubscriptions(d)
	return nil
}

// ServerStats is the /metrics wire form of the server-level counters.
type ServerStats struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Shard          string  `json:"shard,omitempty"`
	Draining       bool    `json:"draining"`
	Queries        int64   `json:"queries"`
	Subscribes     int64   `json:"subscribes"`
	QueryErrors    int64   `json:"query_errors"`
	ResultHits     int64   `json:"result_cache_hits"`
	ResultMisses   int64   `json:"result_cache_misses"`
	PartitionLoads int64   `json:"partition_loads"`
	Timeouts       int64   `json:"timeouts"`
	Subqueries     int64   `json:"subqueries"`
	GenConflicts   int64   `json:"generation_conflicts"`
}

// Stats returns a snapshot of the server-level counters.
func (s *Server) Stats() ServerStats {
	queries, queryErrors := s.Counts()
	return ServerStats{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Shard:          s.shardName,
		Draining:       s.Draining(),
		Queries:        queries,
		Subscribes:     s.subscribes.Load(),
		QueryErrors:    queryErrors,
		ResultHits:     s.resultHits.Load(),
		ResultMisses:   s.resultMisses.Load(),
		PartitionLoads: s.partitionLoads.Load(),
		Timeouts:       s.timeouts.Load(),
		Subqueries:     s.subqueries.Load(),
		GenConflicts:   s.genConflicts.Load(),
	}
}
