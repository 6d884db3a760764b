package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"st4ml/internal/cluster"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
	"st4ml/internal/trace"
)

func ingestNYC(t *testing.T, ctx *engine.Context, n int) string {
	t.Helper()
	dir := t.TempDir()
	recs := datagen.NYC(n, 1)
	r := engine.Parallelize(ctx, recs, 0)
	if _, err := selection.Ingest(r, dir, stdata.EventRecC, stdata.EventRec.Box,
		partition.TSTR{GT: 4, GS: 4},
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestQueryAllSchemas(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	dir := ingestNYC(t, ctx, 2000)
	w := selection.Window{
		Space: geom.Box(-74.0, 40.7, -73.9, 40.8),
		Time:  tempo.New(datagen.Year2013.Start, datagen.Year2013.End),
	}
	pruned, err := query(ctx, "nyc", dir, w, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := query(ctx, "nyc", dir, w, true)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.SelectedRecords != full.SelectedRecords {
		t.Errorf("pruned selected %d, full %d", pruned.SelectedRecords, full.SelectedRecords)
	}
	if full.LoadedPartitions != full.TotalPartitions {
		t.Errorf("full scan should load everything: %+v", full)
	}
	if _, err := query(ctx, "unknown", dir, w, false); err == nil {
		t.Error("unknown schema should error")
	}
}

// TestQueryServesCommittedV1Golden points stquery's query path at copies
// of the committed v1 dataset under internal/storage/testdata: the legacy
// copy is refused with the error naming the re-ingest, and the copy the
// migrating compaction pass produced before v1/v2 support was dropped
// (metadata.json still v1, every partition rewritten as v3) answers with
// every record.
func TestQueryServesCommittedV1Golden(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	w := selection.Window{
		Space: geom.Box(-180, -90, 180, 90),
		Time:  tempo.New(0, 1<<60),
	}
	var le storage.ErrLegacyFormat
	if _, err := query(ctx, "nyc", copyGolden(t, "v1-golden"), w, false); !errors.As(err, &le) || le.Version != 1 {
		t.Fatalf("v1 query returned %v, want storage.ErrLegacyFormat v1", err)
	}
	if !strings.Contains(le.Error(), "stload -dataset <schema> -input") {
		t.Fatalf("legacy error does not name the re-ingest: %v", le)
	}
	stats, err := query(ctx, "nyc", copyGolden(t, "v1-migrated-golden"), w, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SelectedRecords != 80 {
		t.Errorf("migrated v1 dataset served %d records, want 80", stats.SelectedRecords)
	}
	// Each migrated partition is one v3 block (a v1 dataset records no
	// block size, so its rewrites took the 4096-record default), and the
	// full window prunes none.
	if stats.BlocksTotal != int64(stats.LoadedPartitions) || stats.BlocksPruned != 0 {
		t.Errorf("migrated block accounting off: %+v", stats)
	}
}

// copyGolden copies a committed golden dataset under
// internal/storage/testdata into a temp directory.
func copyGolden(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("..", "..", "internal", "storage", "testdata", name)
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestExplainMatchesMetrics is the acceptance check that the explain report
// (built purely from the span dump) agrees with the engine's own counters
// and with the selection stats — the two observability paths cannot drift.
func TestExplainMatchesMetrics(t *testing.T) {
	dir := ingestNYC(t, engine.New(engine.Config{Slots: 2}), 2000)

	tr := trace.New()
	ctx := engine.New(engine.Config{Slots: 2, Tracer: tr})
	w := selection.Window{
		Space: geom.Box(-74.0, 40.7, -73.9, 40.8),
		Time:  tempo.New(datagen.Year2013.Start, datagen.Year2013.End),
	}
	stats, err := query(ctx, "nyc", dir, w, false)
	if err != nil {
		t.Fatal(err)
	}

	e := trace.Build(tr.Snapshot())
	snap := ctx.Metrics.Snapshot()

	if e.TasksRun != snap.TasksRun {
		t.Errorf("explain tasks %d != metrics tasks %d", e.TasksRun, snap.TasksRun)
	}
	if e.TaskRetries != snap.TaskRetries {
		t.Errorf("explain retries %d != metrics retries %d", e.TaskRetries, snap.TaskRetries)
	}
	if e.ShuffleBytes != snap.ShuffleBytes {
		t.Errorf("explain shuffle bytes %d != metrics %d", e.ShuffleBytes, snap.ShuffleBytes)
	}
	if e.ShuffleRecords != snap.ShuffleRecords {
		t.Errorf("explain shuffle records %d != metrics %d", e.ShuffleRecords, snap.ShuffleRecords)
	}

	// Selection stats agree with the span-derived partition accounting.
	if e.ReadPartitions != int64(stats.LoadedPartitions) ||
		e.TotalPartitions != int64(stats.TotalPartitions) {
		t.Errorf("explain partitions %d/%d != stats %d/%d",
			e.ReadPartitions, e.TotalPartitions, stats.LoadedPartitions, stats.TotalPartitions)
	}
	if e.RecordsSelected != stats.SelectedRecords {
		t.Errorf("explain selected %d != stats %d", e.RecordsSelected, stats.SelectedRecords)
	}
	if e.PartitionBytes != stats.LoadedBytes {
		t.Errorf("explain bytes %d != stats %d", e.PartitionBytes, stats.LoadedBytes)
	}

	// Block-granularity accounting agrees three ways: selection stats, the
	// engine counters, and the span-derived explain.
	if e.BlocksScanned != stats.BlocksScanned || e.BlocksPruned != stats.BlocksPruned ||
		e.BytesDecompressed != stats.DecompressedBytes {
		t.Errorf("explain blocks %d/%d/%d != stats %d/%d/%d",
			e.BlocksScanned, e.BlocksPruned, e.BytesDecompressed,
			stats.BlocksScanned, stats.BlocksPruned, stats.DecompressedBytes)
	}
	if e.BlocksScanned != snap.BlocksScanned || e.BlocksPruned != snap.BlocksPruned ||
		e.BytesDecompressed != snap.BytesDecompressed {
		t.Errorf("explain blocks %d/%d/%d != metrics %d/%d/%d",
			e.BlocksScanned, e.BlocksPruned, e.BytesDecompressed,
			snap.BlocksScanned, snap.BlocksPruned, snap.BytesDecompressed)
	}
	if stats.BlocksTotal == 0 || stats.BlocksScanned+stats.BlocksPruned != stats.BlocksTotal {
		t.Errorf("block totals inconsistent: %+v", stats)
	}

	// Every executed stage appears in the explain with matching task and
	// record counts.
	if len(e.Stages) != len(snap.Stages) {
		t.Fatalf("explain has %d stages, metrics %d", len(e.Stages), len(snap.Stages))
	}
	for _, ms := range snap.Stages {
		i := slices.IndexFunc(e.Stages, func(st trace.StageExplain) bool { return st.Name == ms.Name })
		if i < 0 {
			t.Errorf("stage %q missing from explain", ms.Name)
			continue
		}
		if es := e.Stages[i]; es.Tasks != int64(ms.Tasks) || es.Records != ms.Records {
			t.Errorf("stage %q: explain tasks/records %d/%d != metrics %d/%d",
				ms.Name, es.Tasks, es.Records, ms.Tasks, ms.Records)
		}
	}
}

// TestQueryServerMode drives -server end to end against an in-process
// 2-shard cluster: the printed report must carry the server stats and, with
// explain, the stitched scatter lines a routed query produces.
func TestQueryServerMode(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	dir := t.TempDir()
	if _, err := sch.Ingest(ctx, datagen.NYC(2000, 5), dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(serve.Config{Ctx: ctx, ShardName: fmt.Sprintf("s%d", i)})
		if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	m, err := cluster.ParseShards(urls[0] + ";" + urls[1])
	if err != nil {
		t.Fatal(err)
	}
	r, err := cluster.NewRouter(cluster.Config{Shards: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(r.Handler())
	defer router.Close()

	req := serve.QueryRequest{Dataset: "nyc",
		MinX: -180, MinY: -90, MaxX: 180, MaxY: 90,
		TStart: 0, TEnd: 1 << 60, Explain: true}
	var buf bytes.Buffer
	if err := queryServer(&buf, router.URL, req); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"partitions:", "records:", "scatter:", "shard s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("server-mode report missing %q:\n%s", want, out)
		}
	}

	// Errors surface as errors, not zero-value reports.
	if err := queryServer(io.Discard, router.URL, serve.QueryRequest{Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset did not error")
	}
}

// TestSubscribeServerMode drives -subscribe end to end: the client
// registers the window over HTTP, prints the init line, then one line per
// pushed batch as commits land, and exits once -events updates arrived.
func TestSubscribeServerMode(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	dir := t.TempDir()
	if _, err := sch.Ingest(ctx, datagen.NYC(1000, 5), dir, sch.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{Ctx: ctx, SubscribePoll: -1})
	defer srv.Close()
	if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := serve.QueryRequest{Dataset: "nyc",
		MinX: -180, MinY: -90, MaxX: 180, MaxY: 90,
		TStart: 0, TEnd: 1 << 60}

	// Commit from a second goroutine once the subscription is up; the
	// client's stream sees init plus the commit's batches.
	go func() {
		// The hub admits the subscriber before the init is delivered, so a
		// short settle keeps the commit after admission without coupling to
		// client internals. Commits before admission land in the init anyway.
		time.Sleep(100 * time.Millisecond)
		if _, err := sch.Append(datagen.NYC(100, 9), dir, "cli-sub-1"); err != nil {
			t.Error(err)
		}
	}()
	var buf bytes.Buffer
	if err := subscribeServer(&buf, ts.URL, req, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "subscribed: ") || !strings.Contains(out, "init: generation") {
		t.Fatalf("subscribe output missing init line:\n%s", out)
	}
	if !strings.Contains(out, "batch: generation") {
		t.Fatalf("subscribe output missing batch line:\n%s", out)
	}

	// A draining daemon refuses the subscription with an error.
	srv.SetDraining(true)
	if err := subscribeServer(io.Discard, ts.URL, req, 1); err == nil {
		t.Fatal("draining daemon accepted a subscription")
	}
}
