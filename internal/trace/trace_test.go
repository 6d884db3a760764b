package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	tr := New()
	root := tr.StartSpan(0, "query", Str("dataset", "nyc"))
	child := root.Child("stage:load", Int("tasks", 4))
	grand := child.Child(SpanTask, Int("task", 0), Int("attempt", 0))
	grand.End(Bool("committed", true), Int("records", 10))
	child.End(Int("records", 10))
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["stage:load"].Parent != byName["query"].ID {
		t.Errorf("stage parent = %d, want %d", byName["stage:load"].Parent, byName["query"].ID)
	}
	if byName[SpanTask].Parent != byName["stage:load"].ID {
		t.Errorf("task parent = %d, want %d", byName[SpanTask].Parent, byName["stage:load"].ID)
	}
	if !byName[SpanTask].BoolAttr("committed") {
		t.Error("task committed attr lost")
	}
	if v, ok := byName["stage:load"].Int("records"); !ok || v != 10 {
		t.Errorf("stage records = %d,%v", v, ok)
	}
	if ds, ok := byName["query"].Str("dataset"); !ok || ds != "nyc" {
		t.Errorf("dataset attr = %q,%v", ds, ok)
	}
	// Children complete within the parent's interval.
	q, st := byName["query"], byName["stage:load"]
	if st.Start.Before(q.Start) || st.End().After(q.End()) {
		t.Errorf("child [%v,%v] outside parent [%v,%v]", st.Start, st.End(), q.Start, q.End())
	}
}

// TestNoopZeroAlloc is the acceptance gate for "tracing disabled costs
// nothing measurable": the whole span API on a nil tracer must not allocate.
func TestNoopZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan(0, "stage:x", Int("tasks", 8), Str("mode", "pruned"))
		child := sp.Child(SpanTask, Int("task", 3), Int("attempt", 0), Bool("speculative", false))
		child.Set(Int("records", 100))
		child.End(Bool("committed", true))
		sp.End(Int("records", 100))
		_ = sp.ID()
	})
	if allocs != 0 {
		t.Fatalf("no-op span path allocated %.1f times per op, want 0", allocs)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if got := tr.Snapshot(); got != nil {
		t.Errorf("nil tracer snapshot = %v", got)
	}
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer has nonzero counters")
	}
	tr.Reset() // must not panic
	var sp *Span
	if sp.ID() != 0 {
		t.Error("nil span has nonzero ID")
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New()
	root := tr.StartSpan(0, "job")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				sp := root.Child(SpanTask, Int("task", int64(g*50+i)))
				sp.End(Bool("committed", true))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	root.End()
	if n := tr.Len(); n != 8*50+1 {
		t.Fatalf("got %d spans, want %d", n, 8*50+1)
	}
	seen := map[SpanID]bool{}
	for _, s := range tr.Snapshot() {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New()
	root := tr.StartSpan(0, "query")
	sp := root.Child(SpanTask, Int("task", 2), Int("records", 7))
	time.Sleep(time.Millisecond)
	sp.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("chrome dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(dump.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(dump.TraceEvents))
	}
	for _, ev := range dump.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.TS < 0 {
			t.Errorf("event %q ts = %d, want >= 0", ev.Name, ev.TS)
		}
	}
	var taskEv bool
	for _, ev := range dump.TraceEvents {
		if ev.Name == SpanTask {
			taskEv = true
			if ev.TID != 3 {
				t.Errorf("task event tid = %d, want 3 (task+1)", ev.TID)
			}
			if ev.Dur < 900 {
				t.Errorf("task event dur = %dus, want >= ~1ms", ev.Dur)
			}
			if ev.Args["records"].(float64) != 7 {
				t.Errorf("task records arg = %v", ev.Args["records"])
			}
		}
	}
	if !taskEv {
		t.Error("task event missing from dump")
	}
}

func TestDroppedBeyondCap(t *testing.T) {
	tr := New()
	tr.spans = make([]SpanRecord, maxSpans) // simulate a full tracer
	tr.StartSpan(0, "x").End()
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	if tr.Len() != maxSpans {
		t.Fatalf("len grew past cap: %d", tr.Len())
	}
}

func TestExplainRendering(t *testing.T) {
	tr := New()
	root := tr.StartSpan(0, "query")
	sel := root.Child(SpanSelect,
		Int("total_partitions", 16), Int("kept_partitions", 3))
	st := root.Child(SpanStagePrefix+"load:nyc.cache", Int("tasks", 3))
	for i := 0; i < 3; i++ {
		tk := st.Child(SpanTask, Int("task", int64(i)), Int("attempt", 0))
		tk.End(Bool("committed", true))
	}
	retry := st.Child(SpanTask, Int("task", 1), Int("attempt", 1))
	retry.End(Bool("committed", false))
	st.End(Int("records", 100), Int("tasks", 3))
	sel.End(Int("loaded_records", 400), Int("loaded_bytes", 8192), Int("selected", 100))
	pr := root.Child(SpanPartitionRead, Int("partition", 0))
	pr.End(Int("blocks_scanned", 2), Int("blocks_pruned", 6), Int("raw_bytes", 4096))
	pl := root.Child(SpanPartitionLoad, Str("key", "part|nyc|0|0"))
	pl.End(Int("blocks_scanned", 1), Int("blocks_pruned", 3), Int("raw_bytes", 1024))
	sw := root.Child(SpanShuffleWrite, Int("bytes", 2048), Int("records", 100))
	sw.End()
	root.End()

	e := Build(tr.Snapshot())
	if e.TotalPartitions != 16 || e.ReadPartitions != 3 || e.PrunedPartitions != 13 {
		t.Errorf("partitions = %d/%d/%d", e.ReadPartitions, e.PrunedPartitions, e.TotalPartitions)
	}
	if e.RecordsLoaded != 400 || e.RecordsSelected != 100 || e.PartitionBytes != 8192 {
		t.Errorf("records = %+v", e)
	}
	if e.ShuffleBytes != 2048 || e.ShuffleRecords != 100 {
		t.Errorf("shuffle = %d bytes %d records", e.ShuffleBytes, e.ShuffleRecords)
	}
	// Block counters aggregate across partition:read and partition:load.
	if e.BlocksScanned != 3 || e.BlocksPruned != 9 || e.BytesDecompressed != 5120 {
		t.Errorf("blocks = %d scanned %d pruned %d raw",
			e.BlocksScanned, e.BlocksPruned, e.BytesDecompressed)
	}
	if e.TasksRun != 3 || e.TaskRetries != 1 {
		t.Errorf("tasks = %d run %d retries", e.TasksRun, e.TaskRetries)
	}
	var stg StageExplain
	ok := false
	for _, st := range e.Stages {
		if st.Name == "load:nyc.cache" {
			stg, ok = st, true
			break
		}
	}
	if !ok || stg.Records != 100 || stg.Retries != 1 {
		t.Errorf("stage = %+v ok=%v", stg, ok)
	}
	if e.WallMS <= 0 {
		t.Error("wall not positive")
	}

	var buf bytes.Buffer
	e.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"3 read", "13 pruned", "load:nyc.cache", "2048 bytes",
		"3 scanned, 9 pruned; 5120 bytes decompressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain text missing %q:\n%s", want, out)
		}
	}
}

func TestBuildNil(t *testing.T) {
	if Build(nil) != nil {
		t.Error("Build(nil) should be nil")
	}
	var e *Explain
	e.Fprint(&bytes.Buffer{}) // must not panic
}

// TestExplainResultCacheFolds pins how a tree with one result-cache probe
// per routed shard reads: a hit only when every probe hit, in any order.
func TestExplainResultCacheFolds(t *testing.T) {
	for _, c := range []struct {
		hits []bool
		want string
	}{
		{nil, ""},
		{[]bool{true}, "hit"},
		{[]bool{false}, "miss"},
		{[]bool{true, true}, "hit"},
		{[]bool{true, false}, "miss"},
		{[]bool{false, true}, "miss"},
	} {
		tr := New()
		root := tr.StartSpan(0, "query")
		for _, hit := range c.hits {
			root.Child(SpanResultLookup).End(Bool("hit", hit))
		}
		root.End()
		if got := Build(tr.Snapshot()).ResultCache; got != c.want {
			t.Errorf("probes %v: result cache %q, want %q", c.hits, got, c.want)
		}
	}
}
