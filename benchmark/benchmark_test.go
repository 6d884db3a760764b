package main

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"net/url"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every workload so the whole suite runs in seconds.
var smokeScale = scale{
	ServeEvents: 20_000,
	LiveBase:    20_000,
	Batch:       200,
	PipeEvents:  20_000,
	Trajs:       2_000,
	Windows:     lattice{4, 4, 2},
	PipeWindows: lattice{2, 2, 2},
	Standing:    lattice{2, 2, 1},
}

func smokeConfig(t *testing.T, trace bool) config {
	return config{
		seed: 1, seconds: 0.4, trace: trace, scale: smokeScale,
		setups: 1, replayOps: 20, benchDir: t.TempDir(),
	}
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesBenchmarkJSON pins spec.go against BENCHMARK.json: the
// names later issues refer to exist in both, with the same unit, direction
// and bound, and satisfy the driver's schema limits.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog", len(bj.Workloads), len(workloadNames))
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's charset", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bj.Workloads {
		use(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, catalog has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalog", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		use(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, catalog %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalog", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		use(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, catalog %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// timeDerived reports whether a per-layer metric is a timing (or built from
// one), and so may differ between two runs of the same replay. Reply sizes
// count too: they include elapsed_ms, whose digit count varies.
func timeDerived(d metricDef) bool {
	switch d.Name {
	case "serve.resp_bytes_per_op", "cluster.shard_resp_bytes_per_op":
		return true
	}
	return strings.HasPrefix(d.Unit, "ms") || strings.HasPrefix(d.Unit, "us") ||
		strings.HasPrefix(d.Unit, "ns") || strings.HasSuffix(d.Name, "overhead_share")
}

// TestSmoke runs every workload at smoke scale, measured and traced, and
// checks what the contract promises: every metric named in the catalog is
// emitted once with a finite value and its unit, nothing fails
// verification, serve_hot loads no partition, the replay's counts repeat
// exactly, and when it is over no goroutine or listener is left.
func TestSmoke(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), name, smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)

			a, err := runWorkload(context.Background(), name, smokeConfig(t, true))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, a, perLayer, false)
			b, err := runWorkload(context.Background(), name, smokeConfig(t, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range perLayer {
				if !timeDerived(d) && a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
					t.Errorf("%s: %v on one replay, %v on the next", d.Name,
						a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
				}
			}
			if name == wlServeHot {
				if v := a.Metrics["serve.partition_loads_per_op"].Value; v != 0 {
					t.Errorf("serve_hot loaded %v partitions per op, want 0", v)
				}
				if v := a.Metrics["serve.partition_hit_ratio"].Value; v != 1 {
					t.Errorf("serve_hot partition hit ratio %v, want 1", v)
				}
			}
		})
	}
	// Teardown is synchronous; connection goroutines unwind just after it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after teardown, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, catalog has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s = %v, an end-to-end metric must be positive", d.Name, m.Value)
		}
	}
	// The result line carries exactly the contract's four keys.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.line()), &line); err != nil || len(line) != 4 {
		t.Errorf("result line %s: %v", res.line(), err)
	}
}

// TestListenersClosed checks that teardown leaves no loopback listener
// bound: the routed workload starts three.
func TestListenersClosed(t *testing.T) {
	cfg := smokeConfig(t, false)
	w := &serveWorkload{kind: wlRouted, cfg: cfg}
	w.prepare()
	if _, err := w.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, ts := range w.listeners {
		u, err := url.Parse(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, u.Host)
	}
	if len(addrs) != 3 {
		t.Fatalf("routed started %d listeners, want 3", len(addrs))
	}
	w.teardown()
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections after teardown", addr)
		}
	}
}

// TestPinnedInputs checks the frozen-input guard: a matching digest and an
// unpinned seed pass, a changed digest fails loudly.
func TestPinnedInputs(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir+"/testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	pin := "# comment\nserve_hot 1 abc\n"
	if err := os.WriteFile(dir+"/"+pinnedInputsFile, []byte(pin), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkPinnedInputs(dir, wlServeHot, 1, "abc"); err != nil {
		t.Errorf("matching digest: %v", err)
	}
	if err := checkPinnedInputs(dir, wlServeHot, 7, "zzz"); err != nil {
		t.Errorf("unpinned seed: %v", err)
	}
	if err := checkPinnedInputs(dir, wlServeHot, 1, "zzz"); err == nil {
		t.Error("changed digest passed")
	}
}

// TestCompareVerdicts pins -compare's four verdicts.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d           metricDef
		a, b, noise float64
		want        string
	}{
		{lower, 100, 105, 0.02, "same"},
		{lower, 100, 120, 0.02, "worse"},
		{lower, 100, 80, 0.02, "better"},
		{lower, 100, 120, 0.30, "unresolved"},
		{higher, 100, 80, 0.02, "worse"},
		{higher, 100, 120, 0.02, "better"},
	} {
		if got := judge(c.d, c.a, c.b, c.noise); got != c.want {
			t.Errorf("judge(%s, %v -> %v, noise %v) = %s, want %s", c.d.Better, c.a, c.b, c.noise, got, c.want)
		}
	}
	if s := spread([]float64{90, 100, 110}); math.Abs(s-0.10) > 1e-9 {
		t.Errorf("spread = %v, want 0.10", s)
	}
}
