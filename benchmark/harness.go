package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // measure window
	trace   bool    // traced replay instead of the measured run
	scale   scale
	// setups is how many times an untraced run sets up; setup_s is their
	// median, so one slow ingest does not decide the metric.
	setups int
	// replayOps is how many seeded ops the traced replay walks.
	replayOps int
	// benchDir is the benchmark's own directory (testdata, out/).
	benchDir string
}

func (c config) outDir() string { return filepath.Join(c.benchDir, "out") }

// warmup is the unmeasured share run before the window: a fifth of it, the
// issue's 5 s in 25 s.
func (c config) warmup() time.Duration {
	return time.Duration(c.seconds / 5 * float64(time.Second))
}

func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// workload is one of the five benchmark workloads. Methods are called in
// the order prepare, then (setup, teardown)*, with warm/measure or replay
// between the last setup and its teardown.
type workload interface {
	// prepare generates the inputs and their expected answers from the
	// seed and returns the digest of the inputs.
	prepare() string
	// setup builds the stores and starts the daemons under dir, returning
	// once the first reply has been verified. It reports the time the
	// system under test took, leaving out the benchmark's own bookkeeping.
	setup(dir string) (time.Duration, error)
	// teardown closes everything setup started. Safe after a failed setup.
	teardown()
	// warm runs unmeasured ops so caches fill and lazy set-up finishes.
	warm(ctx context.Context, d time.Duration) error
	// measure runs the measured window.
	measure(ctx context.Context, d time.Duration) (*measured, error)
	// diskBytesPerRecord is the store's footprint, read after measure.
	diskBytesPerRecord() (float64, error)
	// info describes sizes worth recording next to the numbers.
	info() map[string]any
	// replay walks the first n seeded ops through the layers' public
	// functions, recording spans, and returns the per-layer metrics it
	// could measure; the rest are reported as 0 (the layer does no work).
	replay(ctx context.Context, rec *recorder, n int) (map[string]float64, error)
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case wlServeCold, wlServeHot, wlRouted:
		return &serveWorkload{kind: name, cfg: cfg}, nil
	case wlIngestLive:
		return &ingestWorkload{cfg: cfg}, nil
	case wlPipelineBatch:
		return &pipelineWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v and all)", name, workloadNames)
}

// result is one run's record: what the last stdout line carries, plus
// where and on what it was measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Env       map[string]any    `json:"env"`
	Info      map[string]any    `json:"info,omitempty"`
}

// line is the contract's result object: exactly these four keys.
func (r *result) line() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func environment() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"clients":    clients,
		"loop":       "closed",
	}
}

// clients is the closed-loop client count of the serving workloads: one
// per core of the box the numbers are calibrated on. ingest_live and
// pipeline_batch have one writer and one job driver respectively.
const clients = 2

// runWorkload runs one workload end to end and returns its result. A
// cancelled ctx (signal or deadline) makes it return early with ctx's
// error, after tearing down like a normal run.
func runWorkload(ctx context.Context, name string, cfg config) (*result, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	digest := w.prepare()
	if cfg.scale == fullScale {
		if err := checkPinnedInputs(cfg.benchDir, name, cfg.seed, digest); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.outDir(), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir(), tempPrefix()+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	res := &result{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: map[string]metric{}, Env: environment(),
	}
	res.Env["inputs_sha256"] = digest

	if cfg.trace {
		err = runTraced(ctx, w, cfg, tmp, res)
	} else {
		err = runMeasured(ctx, w, cfg, tmp, res)
	}
	if err != nil {
		return nil, err
	}
	res.Info = w.info()
	res.Correct = res.Failed == 0
	return res, ctx.Err()
}

func runMeasured(ctx context.Context, w workload, cfg config, tmp string, res *result) error {
	var setups []float64
	defer w.teardown()
	for i := 0; i < cfg.setups; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", i))
		if i > 0 {
			// The earlier set-up's store stays on disk until the run ends:
			// deleting thousands of files just before the window makes the
			// filesystem's journal and discard work land inside it, where
			// every fsync of an append waits for it.
			w.teardown()
			// One set-up's garbage should not ride on the next one's
			// peak: peak_rss_mb is a high-water mark.
			runtime.GC()
		}
		d, err := w.setup(dir)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	if err := w.warm(ctx, cfg.warmup()); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	m, err := w.measure(ctx, cfg.window())
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	disk, err := w.diskBytesPerRecord()
	if err != nil {
		return err
	}

	primary := m.primaryMS()
	p50 := groupedP50(primary)
	// A class latency a workload has no ops for repeats p50_ms: every
	// workload must report every end-to-end metric, and none may be 0.
	classP50 := func(class int) float64 {
		if vs := m.classMS(class); len(vs) > 0 {
			return median(vs)
		}
		return p50
	}
	set := func(name string, v float64) {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
	}
	set("setup_s", median(setups))
	set("ops_per_s", m.opsPerSecond())
	set("p50_ms", p50)
	set("p95_ms", percentile(primary, 0.95))
	set("peak_rss_mb", peakRSSMB())
	set("disk_bytes_per_record", disk)
	set("approx_p50_ms", classP50(classApprox))
	set("push_p50_ms", classP50(classPush))
	set("read_delta_p50_ms", classP50(classRead))
	res.Attempted = int64(len(m.samples))
	res.Failed = m.failed()
	return nil
}

func runTraced(ctx context.Context, w workload, cfg config, tmp string, res *result) error {
	defer w.teardown()
	if _, err := w.setup(filepath.Join(tmp, "setup0")); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rec := newRecorder()
	got, err := w.replay(ctx, rec, cfg.replayOps)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for _, d := range perLayer {
		v := got[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("replay: %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for k := range got {
		if _, ok := res.Metrics[k]; !ok {
			return fmt.Errorf("replay: %s is not in the catalog", k)
		}
	}
	res.Attempted = int64(got["client.samples"])
	res.Failed = int64(math.Round(got["client.fail_share"] * got["client.samples"]))
	return rec.writeChrome(filepath.Join(cfg.outDir(), res.Workload+".trace.json"))
}

// report prints the result as `name value unit` lines.
func (r *result) report(w io.Writer) {
	mode := "measured"
	if r.Trace {
		mode = "traced replay"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s, %gs) ==\n", r.Workload, r.Seed, mode, r.Seconds)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-42s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "%-42s %14.6g share (%d failed of %d attempted)\n",
		"fail_share", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s: %v\n", k, r.Info[k])
	}
}

// save writes the run to out/<workload>.json (out/<workload>.layers.json
// for a traced run) and appends it to out/runs.jsonl, the file -compare
// reads sets of runs from.
func (r *result) save(outDir string) error {
	pretty, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Trace {
		name = r.Workload + ".layers.json"
	}
	if err := os.WriteFile(filepath.Join(outDir, name), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	compact, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(compact, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
