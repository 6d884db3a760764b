package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// ingestNYC writes a synthetic NYC event dataset and returns its directory.
func ingestNYC(t *testing.T, ctx *engine.Context, n int) string {
	t.Helper()
	dir := t.TempDir()
	sch, _ := stdata.Lookup("nyc")
	if _, err := sch.Ingest(ctx, datagen.NYC(n, 1), dir, sch.DefaultPlanner(4, 4),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// nycWindows returns w distinct query windows over the NYC extent and 2013.
func nycWindows(w int) []QueryRequest {
	year := datagen.Year2013
	span := year.End - year.Start
	out := make([]QueryRequest, w)
	for i := range out {
		// Slide a quarter-extent box across the city and a 2-month window
		// across the year.
		fx := float64(i) / float64(w)
		t0 := year.Start + int64(fx*float64(span))/2
		out[i] = QueryRequest{
			Dataset: "nyc",
			MinX:    -74.05 + fx*0.1, MinY: 40.6 + fx*0.1,
			MaxX: -73.95 + fx*0.1, MaxY: 40.75 + fx*0.1,
			TStart: t0, TEnd: t0 + span/6,
			Records: true,
		}
	}
	return out
}

func postQuery(t *testing.T, url string, req QueryRequest) (*QueryResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func getMetrics(t *testing.T, url string) MetricsResponse {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServedMatchesDirectSelection checks the acceptance core: served
// results are byte-identical to a direct selection.SelectPruned over the
// same dataset and windows, and the stats agree.
func TestServedMatchesDirectSelection(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 4})
	dir := ingestNYC(t, ctx, 5000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sel := selection.New(ctx, stdata.EventRecC, stdata.EventRec.Box, nil,
		selection.Config{Index: true})
	for _, req := range nycWindows(5) {
		res, code := postQuery(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("query status %d", code)
		}
		rdd, stats, err := sel.SelectPruned(dir, req.Window())
		if err != nil {
			t.Fatal(err)
		}
		direct := rdd.Collect()
		if int64(len(direct)) != res.Stats.SelectedRecords {
			t.Fatalf("served %d records, direct selection %d",
				res.Stats.SelectedRecords, len(direct))
		}
		if res.Stats.LoadedPartitions != stats.LoadedPartitions ||
			res.Stats.TotalPartitions != stats.TotalPartitions ||
			res.Stats.LoadedRecords != stats.LoadedRecords {
			t.Errorf("stats diverge: served %+v direct %+v", res.Stats, stats)
		}
		if len(res.Records) != len(direct) {
			t.Fatalf("served %d record bodies, want %d", len(res.Records), len(direct))
		}
		for i, rec := range direct {
			want, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Records[i], want) {
				t.Fatalf("record %d: served %s, direct %s", i, res.Records[i], want)
			}
		}
	}
}

// TestConcurrentHotColdClients drives 10 concurrent clients through mixed
// cold/miss and hot/hit phases and asserts, by counter, that the hot phase
// performs no partition loads at all.
func TestConcurrentHotColdClients(t *testing.T) {
	const clients = 10
	ctx := engine.New(engine.Config{Slots: 4})
	dir := ingestNYC(t, ctx, 4000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 64 << 20, MaxInFlight: 8, MaxQueue: 256})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	windows := nycWindows(6)

	run := func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range windows {
					// Stagger the start so clients interleave hot hits
					// with other clients' cold misses.
					req := windows[(c+i)%len(windows)]
					if _, code := postQuery(t, ts.URL, req); code != http.StatusOK {
						t.Errorf("client %d: status %d", c, code)
					}
				}
			}(c)
		}
		wg.Wait()
	}

	run() // cold phase: every window is a miss at least once
	cold := getMetrics(t, ts.URL)
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Server.PartitionLoads == 0 {
		t.Fatal("cold phase loaded no partitions")
	}
	// Deduplicated loading: each partition is read from disk at most once,
	// no matter how many concurrent clients raced on it.
	if cold.Server.PartitionLoads > int64(meta.NumPartitions()) {
		t.Errorf("cold phase loaded %d partitions, dataset has only %d",
			cold.Server.PartitionLoads, meta.NumPartitions())
	}

	run() // hot phase: everything is a result-cache hit
	hot := getMetrics(t, ts.URL)
	if hot.Server.PartitionLoads != cold.Server.PartitionLoads {
		t.Errorf("hot phase loaded %d more partitions, want 0",
			hot.Server.PartitionLoads-cold.Server.PartitionLoads)
	}
	wantHits := int64(clients * len(windows))
	if got := hot.Server.ResultHits - cold.Server.ResultHits; got < wantHits {
		t.Errorf("hot phase result hits = %d, want >= %d", got, wantHits)
	}
	if hot.Admission.ShedBusy != 0 {
		t.Errorf("unexpected sheds under capacity: %+v", hot.Admission)
	}
}

// TestOverAdmissionSheds429 floods a capacity-1 server with slow queries
// and expects the excess shed immediately with 429 — never queued without
// bound — while admitted queries still succeed.
func TestOverAdmissionSheds429(t *testing.T) {
	ctx := engine.New(engine.Config{
		Slots: 2,
		// Every stage's task 0 is a deterministic 30ms straggler, so each
		// cold query occupies its slot long enough for the flood to pile
		// up behind it.
		Faults: &engine.FaultPlan{DelayTasks: map[int]time.Duration{0: 30 * time.Millisecond}},
	})
	dir := ingestNYC(t, ctx, 1500)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20, MaxInFlight: 1, MaxQueue: 1})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const flood = 12
	req := nycWindows(1)[0]
	req.NoCache = true // every request must execute
	codes := make([]int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, codes[i] = postQuery(t, ts.URL, req)
		}(i)
	}
	wg.Wait()

	counts := map[int]int{}
	for _, c := range codes {
		counts[c]++
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no request succeeded: %v", counts)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("no request was shed with 429: %v", counts)
	}
	for c := range counts {
		if c != http.StatusOK && c != http.StatusTooManyRequests && c != http.StatusGatewayTimeout {
			t.Errorf("unexpected status %d: %v", c, counts)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.Admission.ShedBusy == 0 {
		t.Errorf("admission counters saw no sheds: %+v", m.Admission)
	}
	if int(m.Admission.ShedBusy)+int(m.Admission.ShedTimeout)+counts[http.StatusOK] != flood {
		t.Errorf("sheds (%d busy, %d slow) + %d ok != %d requests",
			m.Admission.ShedBusy, m.Admission.ShedTimeout, counts[http.StatusOK], flood)
	}
}

// TestRequestTimeoutSheds504 serves with a deadline far below the injected
// task delay: the query must come back 504, not hang.
func TestRequestTimeoutSheds504(t *testing.T) {
	ctx := engine.New(engine.Config{
		Slots:  2,
		Faults: &engine.FaultPlan{DelayTasks: map[int]time.Duration{0: 300 * time.Millisecond}},
	})
	dir := ingestNYC(t, ctx, 1000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20, Timeout: 30 * time.Millisecond})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := nycWindows(1)[0]
	req.NoCache = true
	if _, code := postQuery(t, ts.URL, req); code != http.StatusGatewayTimeout {
		t.Errorf("slow query status = %d, want 504", code)
	}
	if m := getMetrics(t, ts.URL); m.Server.Timeouts == 0 {
		t.Error("timeout counter did not move")
	}
}

// TestMetadataReloadInvalidatesCache re-ingests the dataset under the
// running server and expects the catalog to pick up the new metadata (by
// mtime) and drop the stale cached results.
func TestMetadataReloadInvalidatesCache(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 2000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := nycWindows(1)[0]
	first, code := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	// Re-ingest twice as many records; nudge the metadata mtime forward in
	// case the filesystem's resolution is too coarse to see the rewrite.
	sch, _ := stdata.Lookup("nyc")
	if _, err := sch.Ingest(ctx, datagen.NYC(4000, 2), dir, sch.DefaultPlanner(4, 4),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, storage.MetadataFile)
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(metaPath, future, future); err != nil {
		t.Fatal(err)
	}

	second, code := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status after reload %d", code)
	}
	if second.Cache == "hit" {
		t.Error("query after re-ingest served from stale cache")
	}
	if second.Stats.LoadedRecords <= first.Stats.LoadedRecords {
		t.Errorf("reload not picked up: loaded %d then %d records",
			first.Stats.LoadedRecords, second.Stats.LoadedRecords)
	}
}

// TestUnknownDatasetAndBadBody covers the 4xx paths.
func TestUnknownDatasetAndBadBody(t *testing.T) {
	srv := NewServer(Config{Ctx: engine.New(engine.Config{Slots: 1})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if _, code := postQuery(t, ts.URL, QueryRequest{Dataset: "nope"}); code != http.StatusNotFound {
		t.Errorf("unknown dataset status = %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body status = %d, want 400", resp.StatusCode)
	}
}

// TestDatasetsEndpoint lists registered datasets.
func TestDatasetsEndpoint(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 1000)
	srv := NewServer(Config{Ctx: ctx})
	if err := srv.AddDataset("taxi", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("taxi", "nyc", dir); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := srv.AddDataset("x", "not-a-schema", dir); err == nil {
		t.Error("unknown schema should fail")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "taxi" || infos[0].Schema != "nyc" ||
		infos[0].Records == 0 || infos[0].Partitions == 0 {
		t.Errorf("datasets = %+v", infos)
	}
}

// TestLimitCapsRecords asks for at most 3 record bodies.
func TestLimitCapsRecords(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 2000)
	srv := NewServer(Config{Ctx: ctx})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := nycWindows(1)[0]
	req.Limit = 3
	res, code := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.Stats.SelectedRecords <= 3 {
		t.Skipf("window only matched %d records", res.Stats.SelectedRecords)
	}
	if len(res.Records) != 3 {
		t.Errorf("got %d records, want 3", len(res.Records))
	}
}

func TestParseDatasetSpec(t *testing.T) {
	name, schema, dir, err := ParseDatasetSpec("taxi:nyc=/data/taxi")
	if err != nil || name != "taxi" || schema != "nyc" || dir != "/data/taxi" {
		t.Errorf("got %q %q %q %v", name, schema, dir, err)
	}
	name, schema, _, err = ParseDatasetSpec("porto=/data/porto")
	if err != nil || name != "porto" || schema != "porto" {
		t.Errorf("got %q %q %v", name, schema, err)
	}
	for _, bad := range []string{"", "nyc", "=dir", "nyc="} {
		if _, _, _, err := ParseDatasetSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// TestMetricsReportArenas drives every segment of a served dataset past
// break-even: /metrics counts the switched segments and their arena
// bytes, and the cache recharges each segment on its first hit after the
// switch: its run index (run boxes and the coordinates it reads), arena
// and 4 bytes a record, no longer its other columns, within the budget.
func TestMetricsReportArenas(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 3000)
	srv := NewServer(Config{Ctx: ctx, SubscribePoll: -1})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	count := allNYC()
	count.NoCache = true
	all := count
	all.Records = true
	query := func(req QueryRequest) *QueryResponse {
		t.Helper()
		res, code := postQuery(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		return res
	}
	for i := 0; i < 3; i++ {
		query(count) // counting encodes nothing, so it never switches a segment
	}
	res := query(all) // encodes every record once: each segment at break-even
	before := getMetrics(t, ts.URL).Cache
	if before.Segments == 0 || before.ArenaSegments != 0 || before.ArenaBytes != 0 {
		t.Fatalf("before the switch: %+v, want cached segments and no arena", before)
	}
	query(all) // switches every segment
	query(all) // hits every segment once more: the cache recharges them
	after := getMetrics(t, ts.URL).Cache
	if after.ArenaSegments != before.Segments || after.Segments != before.Segments {
		t.Fatalf("after the switch %d of %d segments serve from arenas, want all %d",
			after.ArenaSegments, after.Segments, before.Segments)
	}
	if after.ArenaBytes < int64(len(res.Records))*20 {
		t.Fatalf("%d arena bytes for %d records", after.ArenaBytes, len(res.Records))
	}
	// A switched segment is charged its run index — a 48-byte box per run
	// of 16 records and the 24 bytes a record of coordinates it reads —
	// plus its arena and 4 bytes of offset a record; the columns it
	// dropped are no longer charged.
	var idx int64
	srv.cache.mu.Lock()
	for _, el := range srv.cache.items {
		if p, ok := el.Value.(*cacheEntry).val.(stdata.Partition); ok {
			n := int64(p.Len())
			idx += 48*((n+15)/16) + 24*n
		}
	}
	srv.cache.mu.Unlock()
	if want := idx + after.ArenaBytes + 4*res.Stats.SelectedRecords; after.UsedBytes != want || before.UsedBytes <= idx {
		t.Errorf("cache charges %d bytes after the switch, want %d (%d before, %d of run index, %d arena bytes, %d records)",
			after.UsedBytes, want, before.UsedBytes, idx, after.ArenaBytes, res.Stats.SelectedRecords)
	}
	if got := query(all); !equalRecords(got.Records, res.Records) {
		t.Error("records served from the arenas differ from the encoded ones")
	}
}

func equalRecords(a, b []json.RawMessage) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestCachedReplyOwnsRecords pins that a reply kept in the result cache
// copies its records out of the segments' arenas: a 10-record answer must
// not keep whole arenas alive outside the budget. A no_cache reply, kept
// by no one, aliases them.
func TestCachedReplyOwnsRecords(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 3000)
	srv := NewServer(Config{Ctx: ctx, SubscribePoll: -1})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	req := allNYC()
	req.Records, req.NoCache = true, true
	for i := 0; i < 2; i++ { // the second query switches every segment
		if _, err := srv.query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	aliased, err := srv.query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.NoCache, req.Limit = false, 10
	if _, err := srv.query(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	cached, err := srv.query(context.Background(), req)
	if err != nil || cached.Cache != "hit" || len(cached.Records) != 10 {
		t.Fatalf("repeat: cache %q, %d records, %v; want a 10-record hit", cached.Cache, len(cached.Records), err)
	}
	inArena := func(rec json.RawMessage) bool {
		p := uintptr(unsafe.Pointer(unsafe.SliceData(rec)))
		for _, a := range aliased.Records {
			start := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
			if p >= start && p < start+uintptr(len(a)) {
				return true
			}
		}
		return false
	}
	if !inArena(aliased.Records[0]) {
		t.Fatal("a no_cache reply's record lies outside the arena spans it was cut from")
	}
	for i, rec := range cached.Records {
		if !bytes.Equal(rec, aliased.Records[i]) {
			t.Fatalf("cached record %d differs from the arena's", i)
		}
		if inArena(rec) {
			t.Fatalf("cached record %d lies in a segment's arena", i)
		}
	}
}
