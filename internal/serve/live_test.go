package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/subscribe"
)

// sortedRecords returns the records' wire forms, sorted: the set a query
// returned, independent of partition order.
func sortedRecords(recs []json.RawMessage) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	sort.Strings(out)
	return out
}

// TestReingestReusedFileNames pins the ingest epoch in the partition cache
// key: a re-ingest into the same directory rewrites part-NNNNN.stp in place
// with the same names, and the daemon must serve the new records, not the
// decoded partitions it cached from the old files.
func TestReingestReusedFileNames(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 2000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20, SubscribePoll: -1})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := allNYC()
	req.Records = true
	if _, code := postQuery(t, ts.URL, req); code != 200 {
		t.Fatalf("warm-up status %d", code)
	}
	before, _ := os.ReadDir(dir)

	// Same size, same planner, new records: the same file names.
	fresh := datagen.NYC(2000, 2)
	sch, _ := stdata.Lookup("nyc")
	if _, err := sch.Ingest(ctx, fresh, dir, sch.DefaultPlanner(4, 4),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadDir(dir); len(after) != len(before) {
		t.Fatalf("re-ingest wrote %d files where there were %d; names not reused", len(after), len(before))
	}
	// Nudge the metadata mtime forward in case the filesystem's resolution
	// is too coarse to see the rewrite.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(filepath.Join(dir, storage.MetadataFile), future, future); err != nil {
		t.Fatal(err)
	}

	res, code := postQuery(t, ts.URL, req)
	if code != 200 {
		t.Fatalf("status after re-ingest %d", code)
	}
	want := make([]json.RawMessage, len(fresh))
	for i, rec := range fresh {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	got, wantSet := sortedRecords(res.Records), sortedRecords(want)
	if len(got) != len(wantSet) {
		t.Fatalf("served %d records after re-ingest, want %d", len(got), len(wantSet))
	}
	for i := range got {
		if got[i] != wantSet[i] {
			t.Fatalf("served a record the re-ingest replaced: %s", got[i])
		}
	}
}

// TestServedTrajectoriesMatchDirectSelection runs the byte-identity check
// on extent geometries: a trajectory's box is the union of a long extent,
// and every served window must still return exactly direct selection's
// records, in order.
func TestServedTrajectoriesMatchDirectSelection(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := t.TempDir()
	sch, _ := stdata.Lookup("porto")
	if _, err := sch.Ingest(ctx, datagen.Porto(1500, 3), dir, sch.DefaultPlanner(3, 3),
		selection.IngestOptions{Name: "porto", SampleFrac: 0.2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20, SubscribePoll: -1})
	defer srv.Close()
	if err := srv.AddDataset("porto", "porto", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sel := selection.New(ctx, stdata.TrajRecC, stdata.TrajRec.Box, nil, selection.Config{Index: true})
	year, ext := datagen.Year2013, datagen.PortoExtent
	selected := 0
	for i := 0; i < 6; i++ {
		f := float64(i) / 6
		req := QueryRequest{
			Dataset: "porto", Records: true,
			MinX: ext.MinX + f*0.1, MinY: ext.MinY + f*0.07,
			MaxX: ext.MinX + f*0.1 + 0.06, MaxY: ext.MinY + f*0.07 + 0.05,
			TStart: year.Start + int64(f*float64(year.End-year.Start)), TEnd: year.End,
		}
		res, code := postQuery(t, ts.URL, req)
		if code != 200 {
			t.Fatalf("window %d: status %d", i, code)
		}
		rdd, _, err := sel.SelectPruned(dir, req.Window())
		if err != nil {
			t.Fatal(err)
		}
		direct := rdd.Collect()
		selected += len(direct)
		if len(res.Records) != len(direct) {
			t.Fatalf("window %d: served %d trajectories, direct selection %d", i, len(res.Records), len(direct))
		}
		for j, rec := range direct {
			want, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Records[j], want) {
				t.Fatalf("window %d record %d: served %s, direct %s", i, j, res.Records[j], want)
			}
		}
	}
	if selected == 0 {
		t.Fatal("no window selected a trajectory")
	}
}

// liveCopyBytes is the resident size of one fully decoded copy of the
// dataset's live view — what the cache holds once every partition of the
// current generation has been fetched, and nothing more.
func liveCopyBytes(t *testing.T, dir string) int64 {
	t.Helper()
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := stdata.Lookup("nyc")
	var n int64
	for id := 0; id < meta.NumPartitions(); id++ {
		p, _, err := sch.LoadPartition(dir, meta, id)
		if err != nil {
			t.Fatal(err)
		}
		n += p.SizeBytes()
	}
	return n
}

// TestCacheDropsSupersededFiles runs append+compact cycles under a
// full-extent reader: the partition cache keeps only files the current
// view references, so folded-in deltas and superseded bases never pile up
// beyond one live copy of the dataset.
func TestCacheDropsSupersededFiles(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 3000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 256 << 20, SubscribePoll: -1})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sch, _ := stdata.Lookup("nyc")

	req := allNYC()
	req.NoCache = true // results off: the budget holds partition files only
	query := func(label string) {
		t.Helper()
		if _, code := postQuery(t, ts.URL, req); code != 200 {
			t.Fatalf("%s: status %d", label, code)
		}
		used, live := srv.cache.Stats().UsedBytes, liveCopyBytes(t, dir)
		if used == 0 || used > live {
			t.Fatalf("%s: cache holds %d bytes, one live copy is %d", label, used, live)
		}
	}
	query("warm")
	for cycle := 0; cycle < 4; cycle++ {
		for b := 0; b < 3; b++ {
			if _, err := sch.Append(datagen.NYC(200, int64(40+cycle*3+b)), dir, ""); err != nil {
				t.Fatal(err)
			}
			query(fmt.Sprintf("cycle %d append %d", cycle, b))
		}
		if _, err := sch.Compact(dir, storage.CompactOptions{MinDeltas: 1, GCGrace: 0}); err != nil {
			t.Fatal(err)
		}
		query(fmt.Sprintf("cycle %d compacted", cycle))
	}
}

// TestAppendKeepsCachedBases pins what an append costs a warm reader: no
// base partition is decoded again, only the delta files the append wrote
// are read — and the answer is still the live view's.
func TestAppendKeepsCachedBases(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 3000)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 256 << 20, SubscribePoll: -1})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := allNYC()
	if _, code := postQuery(t, ts.URL, req); code != 200 {
		t.Fatalf("warm-up status %d", code)
	}
	warm := getMetrics(t, ts.URL)

	var wrote int64
	cancel := storage.OnCommit(dir, func(ev storage.CommitEvent) error {
		wrote += int64(len(ev.Deltas))
		return nil
	})
	defer cancel()
	sch, _ := stdata.Lookup("nyc")
	for b := 0; b < 2; b++ {
		if _, err := sch.Append(datagen.NYC(300, int64(60+b)), dir, ""); err != nil {
			t.Fatal(err)
		}
		res, code := postQuery(t, ts.URL, req)
		if code != 200 || res.Stats.SelectedRecords != int64(3000+300*(b+1)) {
			t.Fatalf("append %d: status %d, selected %d", b, code, res.Stats.SelectedRecords)
		}
	}
	m := getMetrics(t, ts.URL)
	if m.Server.PartitionLoads != warm.Server.PartitionLoads {
		t.Fatalf("appends re-decoded %d base partitions", m.Server.PartitionLoads-warm.Server.PartitionLoads)
	}
	if got := m.Engine.DeltasRead - warm.Engine.DeltasRead; got != wrote {
		t.Fatalf("read %d delta files, the appends wrote %d", got, wrote)
	}
}

// TestSubscribeHookRacesPoll runs the daemon's two notifier triggers at
// once — the commit hook handing over each append, and a manifest poll
// every millisecond — and checks every batch reaches the subscriber
// exactly once: replay equals the fresh query and no resync was needed.
func TestSubscribeHookRacesPoll(t *testing.T) {
	sch, _ := stdata.Lookup("nyc")
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 1500)
	srv := NewServer(Config{Ctx: ctx, CacheBytes: 32 << 20, SubscribePoll: time.Millisecond})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := fullExtent()
	sub, err := srv.Hub().Subscribe("nyc", req.Window(), subscribe.Options{Queue: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var rs replayState
	drainSub(t, sub, &rs)

	const batches, per = 12, 100
	for b := 0; b < batches; b++ {
		if _, err := sch.Append(datagen.NYC(per, int64(800+b)), dir, fmt.Sprintf("race-poll-%d", b)); err != nil {
			t.Fatal(err)
		}
	}
	drainSub(t, sub, &rs)
	if rs.resyncs != 0 {
		t.Fatalf("%d resyncs on an append-only stream", rs.resyncs)
	}
	if st := srv.Hub().Stats(); st.RecordsPushed != batches*per {
		t.Fatalf("pushed %d records for %d appended", st.RecordsPushed, batches*per)
	}
	if got, want := rs.flatten(), freshRecords(t, ts.URL, req); !bytes.Equal(got, want) {
		t.Fatalf("replay diverged (%d bytes vs %d)", len(got), len(want))
	}
}
