package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/trace"
)

// newSubqueryServer ingests a small NYC store and returns the serving
// daemon plus the dataset dir and pinned metadata.
func newSubqueryServer(t *testing.T) (*Server, string, *storage.Metadata) {
	t.Helper()
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	dir := t.TempDir()
	meta, err := sch.Ingest(ctx, datagen.NYC(4000, 7), dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Ctx: ctx, ShardName: "s0"})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	return srv, dir, meta
}

func postSubquery(t *testing.T, url string, req SubQueryRequest) (*http.Response, SubQueryResponse) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(url+"/subquery", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubQueryResponse
	if resp.StatusCode == http.StatusOK {
		body, err := io.ReadAll(resp.Body)
		if err == nil {
			out, err = ParseSubQueryFrame(body)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func nycWindow() QueryRequest {
	return QueryRequest{
		Dataset: "nyc",
		MinX:    datagen.NYCExtent.MinX, MinY: datagen.NYCExtent.MinY,
		MaxX:   datagen.NYCExtent.MinX + 0.4*(datagen.NYCExtent.MaxX-datagen.NYCExtent.MinX),
		MaxY:   datagen.NYCExtent.MinY + 0.4*(datagen.NYCExtent.MaxY-datagen.NYCExtent.MinY),
		TStart: datagen.Year2013.Start, TEnd: datagen.Year2013.Start + 86400*90,
		Records: true,
	}
}

// TestSubqueryMatchesQuery pins that /subquery over the full pruned
// partition set reassembles into exactly the /query answer, and that its
// span dump carries the shard identity for stitching.
func TestSubqueryMatchesQuery(t *testing.T) {
	srv, _, meta := newSubqueryServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qreq := nycWindow()
	ids := meta.Prune(qreq.Window().Space, qreq.Window().Time)
	if len(ids) == 0 || len(ids) == meta.NumPartitions() {
		t.Fatalf("window should prune some partitions: %d/%d", len(ids), meta.NumPartitions())
	}

	// Single-node answer via /query.
	b, _ := json.Marshal(qreq)
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var single QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	qreq.Explain = true
	hresp, sub := postSubquery(t, ts.URL, SubQueryRequest{
		QueryRequest: qreq, Partitions: ids,
		Gen: meta.Generation, Count: meta.TotalCount,
	})
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("subquery status %d", hresp.StatusCode)
	}
	if sub.Shard != "s0" || sub.Gen != meta.Generation || sub.Count != meta.TotalCount {
		t.Fatalf("response identity: %+v", sub)
	}
	var merged []json.RawMessage
	var selected int64
	for i, pr := range sub.Parts {
		if pr.ID != ids[i] {
			t.Fatalf("chunk %d is partition %d, want %d", i, pr.ID, ids[i])
		}
		merged = append(merged, pr.Records...)
		selected += pr.Selected
	}
	if selected != single.Stats.SelectedRecords || len(merged) != len(single.Records) {
		t.Fatalf("subquery selected %d/%d records, query %d/%d",
			selected, len(merged), single.Stats.SelectedRecords, len(single.Records))
	}
	for i := range merged {
		if !bytes.Equal(merged[i], single.Records[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	if len(sub.Spans) == 0 {
		t.Fatal("explain sub-query returned no spans")
	}
	recs := trace.FromWire(sub.Spans)
	var root bool
	for _, s := range recs {
		if s.Name == trace.SpanSubquery {
			if shard, _ := s.Str("shard"); shard != "s0" {
				t.Fatalf("subquery span shard %q", shard)
			}
			root = true
		}
	}
	if !root {
		t.Fatal("no subquery root span in dump")
	}
}

// TestSubqueryGenerationFence pins the 409 path: a fence planned at a
// different generation (or record count) is refused, never answered with
// mixed-generation data.
func TestSubqueryGenerationFence(t *testing.T) {
	srv, _, meta := newSubqueryServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qreq := nycWindow()
	resp, _ := postSubquery(t, ts.URL, SubQueryRequest{
		QueryRequest: qreq, Partitions: []int{0},
		Gen: meta.Generation + 1, Count: meta.TotalCount,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale gen answered %d, want 409", resp.StatusCode)
	}
	resp, _ = postSubquery(t, ts.URL, SubQueryRequest{
		QueryRequest: qreq, Partitions: []int{0},
		Gen: meta.Generation, Count: meta.TotalCount + 1,
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale count answered %d, want 409", resp.StatusCode)
	}
	if srv.Stats().GenConflicts != 2 {
		t.Fatalf("genConflicts = %d, want 2", srv.Stats().GenConflicts)
	}
}

// TestSubqueryCacheKeyedByGeneration pins the satellite regression: after
// an append bumps the dataset generation, a re-fenced sub-query must not
// be served from the old generation's cache entry.
func TestSubqueryCacheKeyedByGeneration(t *testing.T) {
	srv, dir, meta := newSubqueryServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qreq := QueryRequest{Dataset: "nyc",
		MinX: datagen.NYCExtent.MinX, MinY: datagen.NYCExtent.MinY,
		MaxX: datagen.NYCExtent.MaxX, MaxY: datagen.NYCExtent.MaxY,
		TStart: 0, TEnd: 1 << 60, Records: true}
	all := make([]int, meta.NumPartitions())
	for i := range all {
		all[i] = i
	}
	req := SubQueryRequest{QueryRequest: qreq, Partitions: all,
		Gen: meta.Generation, Count: meta.TotalCount}
	_, first := postSubquery(t, ts.URL, req)
	if first.Cache != "miss" {
		t.Fatalf("first pass cache %q", first.Cache)
	}
	_, again := postSubquery(t, ts.URL, req)
	if again.Cache != "hit" {
		t.Fatalf("second pass cache %q", again.Cache)
	}

	// Append one record through the delta layer: new generation.
	sch, _ := stdata.Lookup("nyc")
	extra := datagen.NYC(1, 99)
	if _, err := sch.Append(extra, dir, "batch-1"); err != nil {
		t.Fatal(err)
	}
	meta2, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Generation == meta.Generation {
		t.Fatal("append did not bump the generation")
	}
	// The old fence now conflicts; the new fence misses the cache and sees
	// the appended record.
	resp, _ := postSubquery(t, ts.URL, req)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("old fence after append answered %d, want 409", resp.StatusCode)
	}
	req.Gen, req.Count = meta2.Generation, meta2.TotalCount
	hresp, fresh := postSubquery(t, ts.URL, req)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("re-fenced subquery status %d", hresp.StatusCode)
	}
	if fresh.Cache != "miss" {
		t.Fatalf("re-fenced subquery served from stale cache (%q)", fresh.Cache)
	}
	var selected int64
	for _, pr := range fresh.Parts {
		selected += pr.Selected
	}
	var firstSelected int64
	for _, pr := range first.Parts {
		firstSelected += pr.Selected
	}
	if selected != firstSelected+1 {
		t.Fatalf("post-append selected %d, want %d", selected, firstSelected+1)
	}
}

// TestReadyzSplitsFromHealthz pins the drain protocol: draining flips
// readiness (and new queries) to 503 while liveness stays green.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	srv, _, meta := newSubqueryServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/healthz") != 200 || get("/readyz") != 200 {
		t.Fatal("fresh daemon must be live and ready")
	}
	srv.SetDraining(true)
	if !srv.Draining() {
		t.Fatal("Draining() false after SetDraining")
	}
	if get("/healthz") != 200 {
		t.Fatal("draining must not fail liveness")
	}
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("draining daemon still ready")
	}
	// New work is refused with 503 so routers fail over.
	b, _ := json.Marshal(nycWindow())
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /query answered %d", resp.StatusCode)
	}
	hresp, _ := postSubquery(t, ts.URL, SubQueryRequest{
		QueryRequest: nycWindow(), Partitions: []int{0},
		Gen: meta.Generation, Count: meta.TotalCount,
	})
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /subquery answered %d", hresp.StatusCode)
	}
	srv.SetDraining(false)
	if get("/readyz") != 200 {
		t.Fatal("undrained daemon not ready again")
	}
}
