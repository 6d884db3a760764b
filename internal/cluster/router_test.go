package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/trace"
)

// testCluster is a loopback fleet: one ingested dataset, one single-node
// baseline daemon, and up to four shard daemons the tests build routers
// over.
type testCluster struct {
	dir    string
	meta   *storage.Metadata
	single *httptest.Server
	shards []*httptest.Server // shard i serves as name si
}

func newTestCluster(t *testing.T, records int, shardCount int) *testCluster {
	t.Helper()
	ctx := engine.New(engine.Config{Slots: 4})
	sch, _ := stdata.Lookup("nyc")
	dir := t.TempDir()
	meta, err := sch.Ingest(ctx, datagen.NYC(records, 7), dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{dir: dir, meta: meta}
	newDaemon := func(name string) *httptest.Server {
		srv := serve.NewServer(serve.Config{Ctx: ctx, ShardName: name})
		if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	tc.single = newDaemon("")
	for i := 0; i < shardCount; i++ {
		tc.shards = append(tc.shards, newDaemon(fmt.Sprintf("s%d", i)))
	}
	return tc
}

// router builds a Router over the first k shards; replicas lists each
// shard's replica URLs — nil means one replica, the shard's own URL.
func (tc *testCluster) router(t *testing.T, k int, cfg Config) *Router {
	t.Helper()
	if len(cfg.Shards.Shards) == 0 {
		m := ShardMap{}
		for i := 0; i < k; i++ {
			m.Shards = append(m.Shards, Shard{
				Name:     fmt.Sprintf("s%d", i),
				Replicas: []string{tc.shards[i].URL},
			})
		}
		cfg.Shards = m
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddDataset("nyc", "nyc", tc.dir); err != nil {
		t.Fatal(err)
	}
	return r
}

// singleNode asks the baseline daemon for the reference answer.
func (tc *testCluster) singleNode(t *testing.T, req serve.QueryRequest) serve.QueryResponse {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(tc.single.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node query status %d", resp.StatusCode)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// routeQuery runs r.Query and splits the answer the way the walls read it:
// exact result, cache disposition, explain, status and error.
func routeQuery(r *Router, q serve.QueryRequest) (stdata.QueryResult, string, *trace.Explain, int, error) {
	resp, err := r.Query(context.Background(), q)
	return resp.QueryResult, resp.Cache, resp.Explain, serve.StatusOf(err), err
}

// seededWindows derives deterministic query windows spanning the metamorphic
// space: sub-windows of varying selectivity, the full extent, a miss, and
// varying record limits.
func seededWindows(seed int64, n int) []serve.QueryRequest {
	rng := rand.New(rand.NewSource(seed))
	ext, yr := datagen.NYCExtent, datagen.Year2013
	dx, dy, dt := ext.MaxX-ext.MinX, ext.MaxY-ext.MinY, yr.End-yr.Start
	out := make([]serve.QueryRequest, 0, n)
	for i := 0; i < n; i++ {
		q := serve.QueryRequest{Dataset: "nyc", Records: true, NoCache: true}
		switch i % 4 {
		case 0: // small window
			fx, fy := 0.05+0.2*rng.Float64(), 0.05+0.2*rng.Float64()
			x0, y0 := ext.MinX+rng.Float64()*(1-fx)*dx, ext.MinY+rng.Float64()*(1-fy)*dy
			q.MinX, q.MaxX, q.MinY, q.MaxY = x0, x0+fx*dx, y0, y0+fy*dy
			t0 := yr.Start + int64(rng.Float64()*0.6*float64(dt))
			q.TStart, q.TEnd = t0, t0+dt/4
		case 1: // wide window, tight time
			q.MinX, q.MaxX, q.MinY, q.MaxY = ext.MinX, ext.MaxX, ext.MinY, ext.MaxY
			t0 := yr.Start + int64(rng.Float64()*0.8*float64(dt))
			q.TStart, q.TEnd = t0, t0+dt/8
			q.Limit = 1 + rng.Intn(40)
		case 2: // half extent, full year, limited
			q.MinX, q.MaxX = ext.MinX, ext.MinX+0.5*dx
			q.MinY, q.MaxY = ext.MinY, ext.MaxY
			q.TStart, q.TEnd = yr.Start, yr.End
			q.Limit = 1 + rng.Intn(200)
		default: // full extent, everything
			q.MinX, q.MaxX, q.MinY, q.MaxY = ext.MinX, ext.MaxX, ext.MinY, ext.MaxY
			q.TStart, q.TEnd = yr.Start, yr.End
		}
		out = append(out, q)
	}
	return out
}

// assertSameAnswer fails unless the routed result matches the single-node
// reference byte for byte: identical stats and identical record bytes in
// identical order.
func assertSameAnswer(t *testing.T, label string, got stdata.QueryResult, want serve.QueryResponse) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats differ:\n router %+v\n single %+v", label, got.Stats, want.Stats)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, single-node %d", label, len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if !bytes.Equal(got.Records[i], want.Records[i]) {
			t.Fatalf("%s: record %d differs:\n router %s\n single %s",
				label, i, got.Records[i], want.Records[i])
		}
	}
}

// TestRouterMatchesSingleNode is the metamorphic property suite: across
// seeded window × shard-count × replica combinations (8×4×2 = 64), a routed
// query must answer byte-identically to one daemon serving the whole
// dataset.
func TestRouterMatchesSingleNode(t *testing.T) {
	tc := newTestCluster(t, 4000, 4)
	windows := seededWindows(42, 8)
	combos, pruned := 0, 0
	for _, replicas := range []int{1, 2} {
		for _, k := range []int{1, 2, 3, 4} {
			m := ShardMap{}
			for i := 0; i < k; i++ {
				reps := []string{tc.shards[i].URL}
				if replicas == 2 {
					reps = append(reps, tc.shards[i].URL)
				}
				m.Shards = append(m.Shards, Shard{Name: fmt.Sprintf("s%d", i), Replicas: reps})
			}
			r := tc.router(t, k, Config{Shards: m})
			for wi, q := range windows {
				label := fmt.Sprintf("replicas=%d shards=%d window=%d", replicas, k, wi)
				q.Explain = true
				got, cache, explain, status, err := routeQuery(r, q)
				if err != nil {
					t.Fatalf("%s: %v (status %d)", label, err, status)
				}
				if cache != "miss" {
					t.Fatalf("%s: cache %q on a NoCache query", label, cache)
				}
				assertSameAnswer(t, label, got, tc.singleNode(t, q))
				if explain == nil || (explain.Scatter == nil && got.Stats.LoadedPartitions > 0) {
					t.Fatalf("%s: missing scatter explain", label)
				}
				if explain.Scatter != nil && explain.Scatter.Width < int64(len(explain.Scatter.RPCs)) {
					t.Fatalf("%s: width %d < %d RPCs", label, explain.Scatter.Width, len(explain.Scatter.RPCs))
				}
				if got.Stats.LoadedPartitions < got.Stats.TotalPartitions {
					pruned++
				}
				combos++
			}
		}
	}
	if combos < 32 {
		t.Fatalf("only %d combos exercised, want >= 32", combos)
	}
	if pruned == 0 {
		t.Fatal("no combo exercised partition pruning")
	}
}

// TestRouterFailoverOnKilledReplica kills the preferred replica of every
// shard mid-request — the connection dies while the sub-query is in flight —
// and requires the router to fail over to the surviving replica and still
// answer byte-identically.
func TestRouterFailoverOnKilledReplica(t *testing.T) {
	tc := newTestCluster(t, 3000, 2)
	// A "killed" replica: accepts the connection, then aborts it on
	// /subquery, which the router sees as a transport error mid-query.
	killed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/subquery" {
			panic(http.ErrAbortHandler)
		}
		http.NotFound(w, r)
	}))
	defer killed.Close()

	m := ShardMap{Shards: []Shard{
		{Name: "s0", Replicas: []string{killed.URL, tc.shards[0].URL}},
		{Name: "s1", Replicas: []string{killed.URL, tc.shards[1].URL}},
	}}
	r := tc.router(t, 2, Config{Shards: m})

	q := seededWindows(7, 4)[3] // full extent: touches both shards
	q.Explain = true
	got, _, explain, status, err := routeQuery(r, q)
	if err != nil {
		t.Fatalf("query with killed replicas failed: %v (status %d)", err, status)
	}
	assertSameAnswer(t, "failover", got, tc.singleNode(t, q))
	if r.Stats().Failovers == 0 {
		t.Fatal("no failovers counted despite killed primaries")
	}
	if explain == nil || explain.Scatter == nil || explain.Scatter.Failovers == 0 {
		t.Fatalf("explain does not report the failovers: %+v", explain)
	}
	// The dead replica is demoted; the next query prefers the survivors.
	for _, sh := range r.ShardStatuses() {
		for _, rep := range sh.Replicas {
			if rep.URL == killed.URL && rep.Ready {
				t.Fatalf("killed replica still marked ready: %+v", sh)
			}
		}
	}
	if _, _, _, _, err := routeQuery(r, q); err != nil {
		t.Fatalf("second query after demotion failed: %v", err)
	}
}

// TestRouterHedgesSlowReplica pins the hedging path: a replica that answers
// correctly but slowly gets a hedged duplicate on its peer, the fast answer
// commits, and the result stays identical.
func TestRouterHedgesSlowReplica(t *testing.T) {
	tc := newTestCluster(t, 2000, 1)
	shard := tc.shards[0]
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		http.Error(w, "too slow to matter", http.StatusInternalServerError)
	}))
	defer slow.Close()

	m := ShardMap{Shards: []Shard{
		{Name: "s0", Replicas: []string{slow.URL, shard.URL}},
	}}
	r := tc.router(t, 1, Config{Shards: m, HedgeAfter: 25 * time.Millisecond})

	q := seededWindows(11, 4)[3]
	q.Explain = true
	got, _, explain, status, err := routeQuery(r, q)
	if err != nil {
		t.Fatalf("hedged query failed: %v (status %d)", err, status)
	}
	assertSameAnswer(t, "hedge", got, tc.singleNode(t, q))
	if r.Stats().Hedges == 0 {
		t.Fatal("no hedges fired against a stalled replica")
	}
	if explain == nil || explain.Scatter == nil || explain.Scatter.Hedges == 0 {
		t.Fatalf("explain does not report the hedges: %+v", explain)
	}
}

// TestRouterReplansOnCompactionRace is the generation-fence regression: a
// delta append committing between the router's plan and its scatter must
// never mix generations in one merged response — the fenced sub-queries are
// refused with 409 and the router replans, answering entirely at the new
// generation.
func TestRouterReplansOnCompactionRace(t *testing.T) {
	tc := newTestCluster(t, 2000, 2)
	r := tc.router(t, 2, Config{})

	sch, _ := stdata.Lookup("nyc")
	var once sync.Once
	r.testHookAfterPlan = func() {
		once.Do(func() {
			if _, err := sch.Append(datagen.NYC(25, 99), tc.dir, "race-batch"); err != nil {
				t.Error(err)
			}
		})
	}

	q := seededWindows(13, 4)[3] // full extent: the appended records match
	q.Explain = true
	got, _, explain, status, err := routeQuery(r, q)
	if err != nil {
		t.Fatalf("raced query failed: %v (status %d)", err, status)
	}
	// The reference answer is computed after the append: the routed answer
	// must be entirely at the new generation, appended records included.
	assertSameAnswer(t, "compaction race", got, tc.singleNode(t, q))
	if r.Stats().Replans == 0 || r.Stats().GenConflicts == 0 {
		t.Fatalf("race not detected: %+v", r.Stats())
	}
	if explain == nil || explain.Scatter == nil || explain.Scatter.Replans != 1 {
		t.Fatalf("explain replans: %+v", explain)
	}

	// A generation that keeps moving past the replan budget surfaces as a
	// conflict error instead of looping forever.
	r2 := tc.router(t, 2, Config{Shards: r.shards})
	batch := 0
	r2.testHookAfterPlan = func() {
		batch++
		if _, err := sch.Append(datagen.NYC(5, int64(100+batch)), tc.dir, fmt.Sprintf("chase-%d", batch)); err != nil {
			t.Error(err)
		}
	}
	if _, _, _, status, err := routeQuery(r2, q); err == nil || status != http.StatusConflict {
		t.Fatalf("runaway generation answered %d, %v", status, err)
	}
}

// TestRouterCacheKeyedByGeneration pins routed caching across an append:
// a repeat is a hit from the shards' sub-query caches, and the shards'
// keys embed the fence the router planned at, so an append invalidates
// and the refreshed answer includes the new records.
func TestRouterCacheKeyedByGeneration(t *testing.T) {
	tc := newTestCluster(t, 1500, 2)
	r := tc.router(t, 2, Config{})
	q := seededWindows(17, 4)[3]
	q.NoCache = false

	got1, cache, _, _, err := routeQuery(r, q)
	if err != nil {
		t.Fatal(err)
	}
	if cache != "miss" {
		t.Fatalf("first query cache %q", cache)
	}
	if _, cache, _, _, err = routeQuery(r, q); err != nil || cache != "hit" {
		t.Fatalf("second query cache %q, err %v", cache, err)
	}

	sch, _ := stdata.Lookup("nyc")
	if _, err := sch.Append(datagen.NYC(10, 123), tc.dir, "gen-bump"); err != nil {
		t.Fatal(err)
	}
	got2, cache, _, _, err := routeQuery(r, q)
	if err != nil {
		t.Fatal(err)
	}
	if cache != "miss" {
		t.Fatalf("post-append query served from stale cache (%q)", cache)
	}
	if got2.Stats.SelectedRecords != got1.Stats.SelectedRecords+10 {
		t.Fatalf("post-append selected %d, want %d",
			got2.Stats.SelectedRecords, got1.Stats.SelectedRecords+10)
	}
	assertSameAnswer(t, "post-append", got2, tc.singleNode(t, q))
}

// TestRouterExplainStitched pins the cross-process trace: the routed
// explain must aggregate the shards' grafted spans into the same counters a
// single node reports, planning attrs single-counted, with one RPC line per
// touched shard whose selected counts sum to the query's.
func TestRouterExplainStitched(t *testing.T) {
	tc := newTestCluster(t, 3000, 2)
	r := tc.router(t, 2, Config{})
	q := seededWindows(19, 4)[2]
	q.Explain = true
	q.NoCache = true

	got, _, explain, _, err := routeQuery(r, q)
	if err != nil {
		t.Fatal(err)
	}
	if explain == nil || explain.Scatter == nil {
		t.Fatal("no scatter explain")
	}
	sc := explain.Scatter
	if sc.Shards != 2 {
		t.Fatalf("scatter shards %d, want 2", sc.Shards)
	}
	if sc.Width < 1 || sc.Width > 2 || int(sc.Width) != len(sc.RPCs) {
		t.Fatalf("width %d with %d RPCs", sc.Width, len(sc.RPCs))
	}
	// Planning attrs are single-counted: the stitched totals must equal the
	// metadata's, not shard-count multiples of it.
	if explain.TotalPartitions != int64(tc.meta.NumPartitions()) {
		t.Fatalf("stitched total partitions %d, metadata has %d",
			explain.TotalPartitions, tc.meta.NumPartitions())
	}
	if explain.ReadPartitions != int64(got.Stats.LoadedPartitions) {
		t.Fatalf("stitched read partitions %d, stats say %d",
			explain.ReadPartitions, got.Stats.LoadedPartitions)
	}
	// The grafted shard spans carry execution: selected counts flow up from
	// the shards' select spans and per-RPC lines, and both must agree with
	// the merged stats.
	if explain.RecordsSelected != got.Stats.SelectedRecords {
		t.Fatalf("stitched selected %d, stats %d", explain.RecordsSelected, got.Stats.SelectedRecords)
	}
	var rpcSelected, rpcParts int64
	for _, rpc := range sc.RPCs {
		if rpc.Shard != "s0" && rpc.Shard != "s1" {
			t.Fatalf("rpc line for unknown shard %q", rpc.Shard)
		}
		if rpc.Replica == "" || rpc.Attempts < 1 {
			t.Fatalf("rpc line incomplete: %+v", rpc)
		}
		rpcSelected += rpc.Selected
		rpcParts += rpc.Partitions
	}
	if rpcSelected != got.Stats.SelectedRecords {
		t.Fatalf("rpc selected sum %d, stats %d", rpcSelected, got.Stats.SelectedRecords)
	}
	if rpcParts != int64(got.Stats.LoadedPartitions) {
		t.Fatalf("rpc partition sum %d, stats %d", rpcParts, got.Stats.LoadedPartitions)
	}
	// Shard-side partition reads were grafted in: the stitched report sees
	// the cache loads the shards performed.
	if explain.PartitionLoads == 0 {
		t.Fatal("stitched explain saw no shard partition loads")
	}
}

// TestRouterEmptyScatter pins the no-op path: a window matching nothing
// answers instantly with zero width and no RPCs.
func TestRouterEmptyScatter(t *testing.T) {
	tc := newTestCluster(t, 1000, 1)
	r := tc.router(t, 1, Config{})
	q := serve.QueryRequest{Dataset: "nyc", Records: true,
		MinX: datagen.NYCExtent.MaxX + 1, MaxX: datagen.NYCExtent.MaxX + 2,
		MinY: datagen.NYCExtent.MaxY + 1, MaxY: datagen.NYCExtent.MaxY + 2,
		TStart: 0, TEnd: 1, Explain: true}
	got, _, explain, _, err := routeQuery(r, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SelectedRecords != 0 || len(got.Records) != 0 {
		t.Fatalf("empty window selected %d records", got.Stats.SelectedRecords)
	}
	if r.Stats().RPCs != 0 {
		t.Fatalf("empty scatter issued %d RPCs", r.Stats().RPCs)
	}
	if explain == nil || explain.Scatter == nil || explain.Scatter.Width != 0 {
		t.Fatalf("empty scatter explain: %+v", explain)
	}
	assertSameAnswer(t, "empty", got, tc.singleNode(t, q))
}

// TestRouterHTTPHandler drives the router through its HTTP face: same
// protocol as a single daemon, metrics exposed, readiness split from
// liveness while draining.
func TestRouterHTTPHandler(t *testing.T) {
	tc := newTestCluster(t, 1500, 2)
	r := tc.router(t, 2, Config{})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	q := seededWindows(23, 4)[3]
	b, _ := json.Marshal(q)
	resp, err := http.Post(ts.URL+"/query?explain=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed query status %d", resp.StatusCode)
	}
	assertSameAnswer(t, "http", out.QueryResult, tc.singleNode(t, q))
	if out.Explain == nil || out.Explain.Scatter == nil {
		t.Fatal("routed HTTP explain missing scatter")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics MetricsResponse
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if metrics.Router.Queries != 1 || metrics.Router.RPCs == 0 || len(metrics.Shards) != 2 {
		t.Fatalf("metrics: %+v", metrics.Router)
	}
	if metrics.Router.ScatterWidth == 0 {
		t.Fatal("metrics scatter width not counted")
	}

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	r.SetDraining(true)
	if get("/healthz") != 200 || get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("draining router: liveness/readiness split broken")
	}
	if resp, _ := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered query with %d", resp.StatusCode)
	}
	r.SetDraining(false)
	if get("/readyz") != 200 {
		t.Fatal("undrained router not ready")
	}
}

// TestRouterSkipsDrainingShard pins router↔shard drain integration: a
// draining replica answers 503 and the router fails over to its peer, so a
// rolling restart never drops queries.
func TestRouterSkipsDrainingShard(t *testing.T) {
	tc := newTestCluster(t, 2000, 2)
	// Shard s0 has two replicas: tc.shards[0] (which we drain) and
	// tc.shards[1] (healthy, same data).
	drainSrv := serve.NewServer(serve.Config{Ctx: engine.New(engine.Config{Slots: 2}), ShardName: "s0"})
	if err := drainSrv.AddDataset("nyc", "nyc", tc.dir); err != nil {
		t.Fatal(err)
	}
	draining := httptest.NewServer(drainSrv.Handler())
	defer draining.Close()
	drainSrv.SetDraining(true)

	m := ShardMap{Shards: []Shard{
		{Name: "s0", Replicas: []string{draining.URL, tc.shards[0].URL}},
	}}
	r := tc.router(t, 1, Config{Shards: m})

	// A readiness pass demotes the draining replica before any query.
	r.CheckReplicas(context.Background())
	sh := r.ShardStatuses()[0]
	if sh.Replicas[0].Ready || !sh.Replicas[1].Ready {
		t.Fatalf("readiness probe: %+v", sh)
	}

	q := seededWindows(29, 4)[3]
	got, _, _, _, err := routeQuery(r, q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, "drain-skip", got, tc.singleNode(t, q))
	// The draining replica was never asked: the probe moved it to the back
	// of the order and the healthy replica answered first.
	if st := r.ShardStatuses()[0]; st.Replicas[0].Calls != 0 {
		t.Fatalf("draining replica received %d calls", st.Replicas[0].Calls)
	}
}
