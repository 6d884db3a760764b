package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"st4ml/internal/engine"
	"st4ml/internal/serve"
)

// TestServedSmoke is the make-check smoke gate: build the daemon against a
// tiny generated dataset, issue one query over HTTP, and expect 200 with a
// sane body.
func TestServedSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the demo ingest dir dies with the test
	ctx := engine.New(engine.Config{Slots: 2})
	srv, cleanup, err := build(ctx, nil, 2000, serve.Config{CacheBytes: 8 << 20, MaxInFlight: 4, MaxQueue: 8, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(
		`{"dataset":"demo","minx":-74.1,"miny":40.6,"maxx":-73.8,"maxy":40.9,"tstart":0,"tend":2000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query status = %d", resp.StatusCode)
	}
	var body struct {
		Stats struct {
			SelectedRecords int64
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Stats.SelectedRecords == 0 {
		t.Error("whole-extent query selected 0 records")
	}

	for _, path := range []string{"/healthz", "/datasets", "/metrics"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s status = %d", path, r.StatusCode)
		}
	}
}

// TestServedExplain exercises the ?explain=1 path end to end: the response
// carries an execution report whose numbers agree with the stats block.
func TestServedExplain(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	ctx := engine.New(engine.Config{Slots: 2})
	srv, cleanup, err := build(ctx, nil, 2000, serve.Config{CacheBytes: 8 << 20, MaxInFlight: 4, MaxQueue: 8, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"dataset":"demo","minx":-74.1,"miny":40.6,"maxx":-73.8,"maxy":40.9,"tstart":0,"tend":2000000000,"explain":true}`
	resp, err := http.Post(ts.URL+"/query?explain=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query status = %d", resp.StatusCode)
	}
	var out struct {
		Cache   string `json:"cache"`
		Explain *struct {
			ReadPartitions  int64  `json:"read_partitions"`
			RecordsSelected int64  `json:"records_selected"`
			TasksRun        int64  `json:"tasks_run"`
			ResultCache     string `json:"result_cache"`
			Spans           int    `json:"spans"`
		} `json:"explain"`
		Stats struct {
			LoadedPartitions int64 `json:"LoadedPartitions"`
			SelectedRecords  int64 `json:"SelectedRecords"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil {
		t.Fatal("explain=1 response has no explain block")
	}
	if out.Explain.Spans == 0 || out.Explain.TasksRun == 0 {
		t.Errorf("explain looks empty: %+v", *out.Explain)
	}
	if out.Explain.ReadPartitions != out.Stats.LoadedPartitions {
		t.Errorf("explain read %d != stats loaded %d",
			out.Explain.ReadPartitions, out.Stats.LoadedPartitions)
	}
	if out.Explain.RecordsSelected != out.Stats.SelectedRecords {
		t.Errorf("explain selected %d != stats %d",
			out.Explain.RecordsSelected, out.Stats.SelectedRecords)
	}
	if out.Explain.ResultCache != "miss" {
		t.Errorf("first query result_cache = %q, want miss", out.Explain.ResultCache)
	}

	// A repeat of the same query (same result key) must explain as a hit.
	resp2, err := http.Post(ts.URL+"/query?explain=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 struct {
		Cache   string `json:"cache"`
		Explain *struct {
			ResultCache string `json:"result_cache"`
		} `json:"explain"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Cache != "hit" || out2.Explain == nil || out2.Explain.ResultCache != "hit" {
		t.Errorf("repeat query cache=%q explain=%+v, want hit/hit", out2.Cache, out2.Explain)
	}

	// An untraced query must carry no explain block.
	resp3, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(
		`{"dataset":"demo","minx":-74.1,"miny":40.6,"maxx":-73.8,"maxy":40.9,"tstart":0,"tend":2000000000,"no_cache":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var out3 map[string]json.RawMessage
	if err := json.NewDecoder(resp3.Body).Decode(&out3); err != nil {
		t.Fatal(err)
	}
	if _, ok := out3["explain"]; ok {
		t.Error("untraced query response carries an explain block")
	}
}

// TestDebugMux checks the -debug-addr pprof mux serves the profile index
// without touching the main query mux.
func TestDebugMux(t *testing.T) {
	ts := httptest.NewServer(debugMux())
	defer ts.Close()
	r, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ status = %d", r.StatusCode)
	}
	r2, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline status = %d", r2.StatusCode)
	}
}

// TestDemoDirRemoved pins that -demo leaves nothing behind: the ingest
// directory is gone once the cleanup that build returns has run, and
// after a build that fails once the demo is ingested.
func TestDemoDirRemoved(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	demoDirs := func() []string {
		m, err := filepath.Glob(filepath.Join(tmp, "stserved-demo-*"))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ctx := engine.New(engine.Config{Slots: 2})
	_, cleanup, err := build(ctx, nil, 500, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(demoDirs()); n != 1 {
		t.Fatalf("%d demo directories while serving, want 1", n)
	}
	cleanup()
	if left := demoDirs(); len(left) != 0 {
		t.Fatalf("demo directories left after cleanup: %v", left)
	}

	if _, _, err := build(ctx, []string{"bad"}, 500, serve.Config{}); err == nil {
		t.Fatal("bad dataset spec accepted")
	}
	if left := demoDirs(); len(left) != 0 {
		t.Fatalf("demo directories left after a failed build: %v", left)
	}
}
