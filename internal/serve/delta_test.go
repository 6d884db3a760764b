package serve

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// allNYC is a window covering the whole synthetic corpus, so selected
// counts track the dataset's total record count.
func allNYC() QueryRequest {
	return QueryRequest{
		Dataset: "nyc",
		MinX:    -180, MinY: -90, MaxX: 180, MaxY: 90,
		TStart: 0, TEnd: 1 << 40,
	}
}

// TestCatalogDetectsInPlaceRewrite is the regression for the revalidation
// bug: delta appends and compactions rewrite the dataset in place without
// ever touching metadata.json, so an mtime-only probe would keep serving
// the stale pinned view. The catalog must revalidate on the manifest
// generation and reload.
func TestCatalogDetectsInPlaceRewrite(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 2000)
	cat := NewCatalog()
	d, err := cat.Register("nyc", "nyc", dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, gen0, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	base := meta.TotalCount

	// Out-of-band append: metadata.json untouched, manifest committed.
	extra := datagen.NYC(333, 7)
	if _, err := storage.AppendDelta(dir, stdata.EventRecC, extra, stdata.EventRec.Box,
		storage.AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, gen1, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if gen1 == gen0 {
		t.Fatal("catalog generation did not move after an in-place append")
	}
	if meta.TotalCount != base+333 {
		t.Fatalf("pinned view has %d records, want %d", meta.TotalCount, base+333)
	}

	// Out-of-band compaction: also in place, also must be detected.
	if _, err := storage.Compact(dir, stdata.EventRecC, stdata.EventRec.Box,
		storage.CompactOptions{MinDeltas: 1, GCGrace: 0}); err != nil {
		t.Fatal(err)
	}
	meta, gen2, err := d.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if gen2 == gen1 {
		t.Fatal("catalog generation did not move after an in-place compaction")
	}
	if meta.TotalCount != base+333 || meta.DeltaCount() != 0 {
		t.Fatalf("post-compaction view: %d records, %d deltas", meta.TotalCount, meta.DeltaCount())
	}
	// Stable when nothing changes.
	if _, gen3, err := d.Meta(); err != nil || gen3 != gen2 {
		t.Fatalf("generation moved without a change: %d -> %d (err %v)", gen2, gen3, err)
	}
}

// TestServedAcrossConcurrentCompaction proves the daemon serves correct
// results while appends and a compaction rewrite the dataset underneath
// it, without a restart: concurrent full-extent queries must never see a
// torn state — observed counts only grow (appends) and never regress
// (compaction preserves the record set) — and the final count equals the
// full corpus. Growth is checked in real-time order, across clients: a
// request sent after any reply arrived must count at least that reply's
// records. (Two requests in flight together may finish in either order,
// so the order replies arrive in proves nothing by itself.) Every commit
// is served: the writer waits, under a deadline, for a reply carrying each
// append's count before the next append, and for a request sent after the
// compaction to count the full corpus.
func TestServedAcrossConcurrentCompaction(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 4})
	dir := ingestNYC(t, ctx, 3000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 64 << 20, MaxInFlight: 8, MaxQueue: 256})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := allNYC()
	if res, code := postQuery(t, ts.URL, req); code != 200 || res.Stats.SelectedRecords != 3000 {
		t.Fatalf("warmup: code=%d res=%+v", code, res)
	}

	// observed is one reply: when its request was sent, when the reply
	// arrived, and the count it carried.
	type observed struct {
		sent, replied time.Time
		count         int64
	}
	var stopFlag atomic.Bool
	var mu sync.Mutex
	var seen []observed
	arrived := make(chan struct{}, 1) // a reply was added to seen
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopFlag.Load() {
				sent := time.Now()
				res, code := postQuery(t, ts.URL, req)
				replied := time.Now()
				if code != 200 {
					t.Errorf("query failed with status %d", code)
					return
				}
				mu.Lock()
				seen = append(seen, observed{sent, replied, res.Stats.SelectedRecords})
				mu.Unlock()
				select {
				case arrived <- struct{}{}:
				default:
				}
			}
		}()
	}
	stop := func() {
		stopFlag.Store(true)
		wg.Wait()
	}
	// waitReply blocks until a reply satisfies ok, and fails the test if
	// none has within a bounded deadline: a commit the daemon never serves.
	checked := 0
	waitReply := func(what string, ok func(observed) bool) {
		timeout := time.After(10 * time.Second)
		for {
			mu.Lock()
			for ; checked < len(seen); checked++ {
				if ok(seen[checked]) {
					mu.Unlock()
					return
				}
			}
			mu.Unlock()
			select {
			case <-arrived:
			case <-timeout:
				stop()
				t.Fatalf("no reply %s within 10s", what)
			}
		}
	}

	// Writer: stream appends, then compact, while the queriers hammer.
	extra := datagen.NYC(1000, 9)
	for b := 0; b < 5; b++ {
		lo, hi := b*200, (b+1)*200
		if _, err := storage.AppendDelta(dir, stdata.EventRecC, extra[lo:hi],
			stdata.EventRec.Box, storage.AppendOptions{}); err != nil {
			stop()
			t.Fatal(err)
		}
		want := int64(3000 + hi)
		waitReply(fmt.Sprintf("counting append %d's %d records", b, want),
			func(o observed) bool { return o.count == want })
	}
	// Long GC grace keeps pre-compaction files for queries still holding
	// the previous generation's view.
	if _, err := storage.Compact(dir, stdata.EventRecC, stdata.EventRec.Box,
		storage.CompactOptions{MinDeltas: 1, GCGrace: time.Hour}); err != nil {
		stop()
		t.Fatal(err)
	}
	compacted := time.Now()
	waitReply("to a request sent after the compaction counting 4000 records",
		func(o observed) bool { return o.sent.After(compacted) && o.count == 4000 })
	stop()

	// No torn states: counts come in batch-of-200 steps and never fall
	// below a count some earlier reply already showed. byReply[i] is the
	// i-th reply to arrive; maxBefore[i] the largest count among the first
	// i of them.
	byReply := append([]observed(nil), seen...)
	sort.Slice(byReply, func(i, j int) bool { return byReply[i].replied.Before(byReply[j].replied) })
	maxBefore := make([]int64, len(byReply)+1)
	for i, o := range byReply {
		if (o.count-3000)%200 != 0 {
			t.Fatalf("observed count %d is not base + whole batches", o.count)
		}
		maxBefore[i+1] = max(maxBefore[i], o.count)
	}
	for _, o := range seen {
		// Replies that had arrived before this request was sent.
		n := sort.Search(len(byReply), func(i int) bool { return !byReply[i].replied.Before(o.sent) })
		if o.count < maxBefore[n] {
			t.Fatalf("count regressed: a request sent after a reply of %d records got %d",
				maxBefore[n], o.count)
		}
	}
	// And the settled daemon serves the full corpus with zero live deltas.
	res, code := postQuery(t, ts.URL, req)
	if code != 200 || res.Stats.SelectedRecords != 4000 {
		t.Fatalf("final: code=%d selected=%d want 4000", code, res.Stats.SelectedRecords)
	}
	info := srv.Catalog().List()[0]
	if info.Records != 4000 {
		t.Fatalf("catalog reports %d records", info.Records)
	}
}

// TestServedDeltaExplain checks the observability thread: an explained
// query over a dataset with live deltas reports the delta reads in both
// the explain output and the engine counters.
func TestServedDeltaExplain(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 2000)
	if _, err := storage.AppendDelta(dir, stdata.EventRecC, datagen.NYC(400, 11),
		stdata.EventRec.Box, storage.AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20})
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := allNYC()
	req.Explain = true
	res, code := postQuery(t, ts.URL, req)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if res.Explain == nil {
		t.Fatal("no explain attached")
	}
	if res.Explain.DeltaFilesRead == 0 || res.Explain.DeltaRecords == 0 {
		t.Fatalf("explain reports no delta reads: %+v", res.Explain)
	}
	m := getMetrics(t, ts.URL)
	if m.Engine.DeltasRead == 0 || m.Engine.DeltaRecords == 0 {
		t.Fatalf("engine counters report no delta reads: %+v", m.Engine)
	}
}
