package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/tempo"
)

// TestIngestSmoke drives the full loop in-process: base ingest, a CSV feed
// appended via -once, then a second -once proving the offset sidecar and
// batch ids make re-runs no-ops.
func TestIngestSmoke(t *testing.T) {
	dir := t.TempDir()
	sch, _ := stdata.Lookup("nyc")
	ctx := engine.New(engine.Config{Slots: 2})
	base := datagen.NYC(500, 1)
	if _, err := sch.Ingest(ctx, base, dir, sch.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	feed := filepath.Join(t.TempDir(), "feed.csv")
	extra := datagen.NYC(123, 2)
	f, err := os.Create(feed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range extra {
		fmt.Fprintf(f, "%d,%v,%v,%d,%s\n", e.ID+10_000, e.Loc.X, e.Loc.Y, e.Time, e.Aux)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := config{
		Schema: "nyc", Dir: dir, Input: feed,
		BatchRecords: 50, Once: true, CompactDeltas: 2, GCGrace: 0,
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(500 + 123); meta.TotalCount != want {
		t.Fatalf("TotalCount = %d, want %d", meta.TotalCount, want)
	}
	// -once compacts at the end, so the batches should have been folded into
	// rewritten base partitions where the threshold was met.
	gen := meta.Generation
	if gen == 0 {
		t.Fatal("generation still 0 after appends")
	}

	// Re-running over the same file must change nothing: the offset sidecar
	// skips the consumed bytes.
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	meta2, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.TotalCount != meta.TotalCount {
		t.Fatalf("re-run changed TotalCount: %d -> %d", meta.TotalCount, meta2.TotalCount)
	}
}

// TestIngestSurfacesHookError pins the commit-hook failure contract: the
// batch IS committed (durable, offset advanced — a replay would dedup
// silently and lose the notification again), the error reaches the exit
// status, and a re-run neither duplicates records nor re-reports.
func TestIngestSurfacesHookError(t *testing.T) {
	dir := t.TempDir()
	sch, _ := stdata.Lookup("nyc")
	ctx := engine.New(engine.Config{Slots: 2})
	if _, err := sch.Ingest(ctx, datagen.NYC(300, 1), dir, sch.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	feed := filepath.Join(t.TempDir(), "feed.csv")
	extra := datagen.NYC(40, 2)
	f, err := os.Create(feed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range extra {
		fmt.Fprintf(f, "%d,%v,%v,%d,%s\n", e.ID+10_000, e.Loc.X, e.Loc.Y, e.Time, e.Aux)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	hookErr := errors.New("subscription notifier down")
	cancel := storage.OnCommit(dir, func(storage.CommitEvent) error { return hookErr })
	var log bytes.Buffer
	cfg := config{
		Schema: "nyc", Dir: dir, Input: feed,
		BatchRecords: 100, Once: true, CompactDeltas: 0, Log: &log,
	}
	err = run(cfg)
	cancel()
	if err == nil {
		t.Fatal("hook failure did not surface in the run error (exit status)")
	}
	var herr *storage.HookError
	if !errors.As(err, &herr) || !errors.Is(err, hookErr) {
		t.Fatalf("run error %v does not wrap the hook error", err)
	}
	if !strings.Contains(log.String(), "committed") || !strings.Contains(log.String(), "commit hook failed") {
		t.Fatalf("log line does not report the committed-but-unnotified batch: %q", log.String())
	}

	// Despite the error, the batch committed and the offset advanced.
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(300 + 40); meta.TotalCount != want {
		t.Fatalf("TotalCount = %d, want %d (batch must be durable)", meta.TotalCount, want)
	}
	off, err := readOffset(dir, feed)
	if err != nil {
		t.Fatal(err)
	}
	if off == 0 {
		t.Fatal("offset did not advance past the committed batch")
	}

	// A re-run (hook gone) is a clean no-op: no duplicates, no error.
	if err := run(cfg); err != nil {
		t.Fatalf("re-run after hook failure errored: %v", err)
	}
	meta2, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.TotalCount != meta.TotalCount {
		t.Fatalf("re-run duplicated records: %d -> %d", meta.TotalCount, meta2.TotalCount)
	}
}

// TestOnceOnLegacyAndMigratedGoldens drives `stingest -once` over temp
// copies of the committed golden datasets. On the legacy v1 and v2 copies
// it refuses with storage.ErrLegacyFormat — as a bare compaction pass and
// with an -input feed alike — naming the re-ingest, and leaves every file
// as it was: nothing is appended, compacted or collected. On the copies
// the migrating compaction pass produced before v1/v2 support was dropped
// (metadata.json still v1/v2, every partition rewritten as v3) it ingests
// a feed and compacts it in, after which every entry point answers, the
// sidecars stay live, a second pass compacts nothing, and GC has kept the
// legacy files metadata.json still names.
func TestOnceOnLegacyAndMigratedGoldens(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	all := selection.Window{Space: geom.Box(-180, -90, 180, 90), Time: tempo.New(0, 1<<60)}
	feed := filepath.Join(t.TempDir(), "feed.csv")
	var csv bytes.Buffer
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&csv, "%d,%v,%v,%d,feed\n", 50_000+i, -73.9+0.1*float64(i%8), 40.8, 100+600*i)
	}
	if err := os.WriteFile(feed, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		golden  string
		version int
	}{
		{"v1-golden", 1},
		{"v2-golden", 2},
	} {
		dir := copyGolden(t, tc.golden)
		before := readFiles(t, dir)
		for _, input := range []string{"", feed} {
			cfg := config{Schema: "nyc", Dir: dir, Input: input, Once: true, CompactDeltas: 1, GCGrace: 0}
			var le storage.ErrLegacyFormat
			err := run(cfg)
			if !errors.As(err, &le) || le.Dir != dir || le.Version != tc.version {
				t.Fatalf("%s -input %q: run returned %v, want ErrLegacyFormat v%d", tc.golden, input, err, tc.version)
			}
			if !strings.Contains(err.Error(), "stload -dataset <schema> -input") {
				t.Fatalf("%s: refusal does not name the re-ingest: %v", tc.golden, err)
			}
			if after := readFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s -input %q: the refused run changed the dataset's files", tc.golden, input)
			}
		}
	}

	for _, tc := range []struct {
		golden  string
		version int
	}{
		{"v1-migrated-golden", 0},
		{"v2-migrated-golden", 2},
	} {
		dir := copyGolden(t, tc.golden)
		meta, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Version != tc.version {
			t.Fatalf("%s: metadata version %d, want %d", tc.golden, meta.Version, tc.version)
		}
		sidecars := summaryCount(meta)
		if sidecars != meta.NumPartitions() {
			t.Fatalf("%s: golden carries %d sidecars for %d partitions", tc.golden, sidecars, meta.NumPartitions())
		}

		var log bytes.Buffer
		cfg := config{Schema: "nyc", Dir: dir, Input: feed, Once: true, CompactDeltas: 1, GCGrace: 0, Log: &log}
		if err := run(cfg); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if !strings.Contains(log.String(), "compacted ") || strings.Contains(log.String(), "compacted 0 partitions") {
			t.Fatalf("%s: log %q, want the feed compacted in", tc.golden, log.String())
		}
		meta, err = storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := meta.CheckFormat(dir); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		if meta.TotalCount != 92 || meta.DeltaCount() != 0 {
			t.Fatalf("%s: %d records and %d deltas after the run, want 92 and 0", tc.golden, meta.TotalCount, meta.DeltaCount())
		}
		if summaryCount(meta) != sidecars {
			t.Fatalf("%s: %d live sidecars after the run, %d before", tc.golden, summaryCount(meta), sidecars)
		}
		entries := []struct {
			name string
			run  func() error
		}{
			{"ReadBase", func() error {
				_, _, _, err := storage.ReadBase(dir, meta, 0, stdata.EventRecC, nil)
				return err
			}},
			{"ReadPartitionPruned", func() error {
				_, _, err := storage.ReadPartitionPruned(dir, meta, 1, stdata.EventRecC, nil)
				return err
			}},
			{"ReadPartitionBlocks", func() error {
				_, _, err := storage.ReadPartitionBlocks(dir, meta, 0, stdata.EventRecC, map[int]bool{0: true})
				return err
			}},
			{"BuildSummaries", func() error {
				_, err := sch.BuildSummaries(dir, summary.Config{})
				return err
			}},
			{"Catalog.Register", func() error {
				_, err := serve.NewCatalog().Register("nyc", "nyc", dir)
				return err
			}},
		}
		for _, e := range entries {
			if err := e.run(); err != nil {
				t.Fatalf("%s: %s: %v", tc.golden, e.name, err)
			}
		}
		st, err := sch.NewQuerier(ctx, selection.Config{}).SelectPruned(dir, all)
		if err != nil || st.SelectedRecords != 92 {
			t.Fatalf("%s: query selected %d records (%v), want 92", tc.golden, st.SelectedRecords, err)
		}
		res, _, err := sch.ApproxQuery(ctx, dir, meta, all, stdata.ApproxRequest{Agg: summary.AggCount})
		if err != nil || res.Fallback || !res.Exact || res.CountLo != 92 {
			t.Fatalf("%s: approx count = %+v (%v), want exactly 92 from sidecars", tc.golden, res, err)
		}

		// A second pass finds nothing to fold.
		log.Reset()
		cfg.Input = ""
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(log.String(), "compacted 0 partitions") {
			t.Fatalf("%s: second pass log %q, want nothing compacted", tc.golden, log.String())
		}
		// GC (grace 0) kept the legacy base files metadata.json still names,
		// though no reader opens them.
		for _, f := range readRawPartitionFiles(t, dir) {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Fatalf("%s: GC removed %s, which metadata.json names: %v", tc.golden, f, err)
			}
		}
	}
}

// readFiles returns the bytes of every file in dir by name.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// copyGolden copies a committed golden dataset into a temp directory, so
// a run never touches the committed files.
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

// readRawPartitionFiles returns the partition file names metadata.json
// itself lists, before the manifest's rewrites replace them in the view.
func readRawPartitionFiles(t *testing.T, dir string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, storage.MetadataFile))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Partitions []struct {
			File string `json:"file"`
		} `json:"partitions"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range raw.Partitions {
		out = append(out, p.File)
	}
	return out
}

// summaryCount is how many of m's partitions carry a live summary sidecar.
func summaryCount(m *storage.Metadata) int {
	n := 0
	for i := range m.Partitions {
		if _, ok := m.SummaryFor(i); ok {
			n++
		}
	}
	return n
}
