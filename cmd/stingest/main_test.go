package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// TestMigrateLegacyGoldens is the one-command migration, end to end, on
// temp copies of the committed v1 and v2 golden datasets (both carry
// summary sidecars). Before the pass every entry point refuses the
// dataset with storage.ErrLegacyFormat — the four storage readers, the
// summary backfill, the serving catalog, and the selection path stquery
// -dir runs. `stingest -dir D -once` with no -input then rewrites every
// partition as v3 and keeps the sidecars live; afterwards each entry point
// answers, a second pass compacts nothing, and GC has kept the files
// metadata.json names.
func TestMigrateLegacyGoldens(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	all := selection.Window{Space: geom.Box(-180, -90, 180, 90), Time: tempo.New(0, 1<<60)}
	for _, tc := range []struct {
		golden  string
		version int
	}{
		{"v1-golden", 1},
		{"v2-golden", 2},
	} {
		dir := copyGolden(t, tc.golden)
		meta, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		// A delta whose manifest entry has no format predates the columnar
		// layout: the delta reader refuses it without opening the file.
		legacyDelta := storage.DeltaMeta{PartitionMeta: meta.Partitions[0]}
		entries := []struct {
			name string
			run  func() error
		}{
			{"ReadBase", func() error {
				_, _, _, err := storage.ReadBase(dir, meta, 0, stdata.EventRecC, nil)
				return err
			}},
			{"ReadDelta", func() error {
				_, _, _, err := storage.ReadDelta(dir, legacyDelta, stdata.EventRecC, nil)
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
			{"stquery -dir", func() error {
				_, err := sch.NewQuerier(ctx, selection.Config{}).SelectPruned(dir, all)
				return err
			}},
		}
		for _, e := range entries {
			var le storage.ErrLegacyFormat
			if err := e.run(); !errors.As(err, &le) || le.Dir != dir {
				t.Fatalf("%s: %s returned %v, want ErrLegacyFormat for %s", tc.golden, e.name, err, dir)
			}
		}
		if le := (storage.ErrLegacyFormat{Dir: dir, File: "f", Version: tc.version}); !strings.Contains(le.Error(), "-dir "+dir+" -once") {
			t.Fatalf("legacy error does not name the migration: %v", le)
		}
		sidecars := meta.SummaryCount()
		if sidecars != meta.NumPartitions() {
			t.Fatalf("%s: golden carries %d sidecars for %d partitions", tc.golden, sidecars, meta.NumPartitions())
		}

		// The migration: stingest -dir D -once.
		var log bytes.Buffer
		cfg := config{Schema: "nyc", Dir: dir, Once: true, CompactDeltas: 4, GCGrace: 0, Log: &log}
		if err := run(cfg); err != nil {
			t.Fatalf("%s: migration: %v", tc.golden, err)
		}
		if want := fmt.Sprintf("compacted %d partitions", meta.NumPartitions()); !strings.Contains(log.String(), want) {
			t.Fatalf("%s: migration log %q, want %q", tc.golden, log.String(), want)
		}
		meta, err = storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := meta.CheckFormat(dir); err != nil {
			t.Fatalf("%s: after migration: %v", tc.golden, err)
		}
		if meta.SummaryCount() != sidecars {
			t.Fatalf("%s: %d live sidecars after migration, %d before", tc.golden, meta.SummaryCount(), sidecars)
		}
		migratedDelta := storage.DeltaMeta{PartitionMeta: meta.Partitions[0]}
		entries[1].run = func() error {
			_, _, _, err := storage.ReadDelta(dir, migratedDelta, stdata.EventRecC, nil)
			return err
		}
		for _, e := range entries {
			if err := e.run(); err != nil {
				t.Fatalf("%s: %s after migration: %v", tc.golden, e.name, err)
			}
		}
		st, err := sch.NewQuerier(ctx, selection.Config{}).SelectPruned(dir, all)
		if err != nil || st.SelectedRecords != 80 {
			t.Fatalf("%s: migrated query selected %d records (%v), want 80", tc.golden, st.SelectedRecords, err)
		}
		res, _, err := sch.ApproxQuery(ctx, dir, meta, all, stdata.ApproxRequest{Agg: summary.AggCount})
		if err != nil || res.Fallback || !res.Exact || res.CountLo != 80 {
			t.Fatalf("%s: migrated approx count = %+v (%v), want exactly 80 from sidecars", tc.golden, res, err)
		}

		// A second pass finds nothing to migrate or fold.
		log.Reset()
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(log.String(), "compacted 0 partitions") {
			t.Fatalf("%s: second pass log %q, want nothing compacted", tc.golden, log.String())
		}
		// GC (grace 0) reaped the superseded sidecars but kept the legacy
		// base files metadata.json still names.
		raw := readRawPartitionFiles(t, dir)
		for _, f := range raw {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Fatalf("%s: GC removed %s, which metadata.json names: %v", tc.golden, f, err)
			}
			if _, err := os.Stat(filepath.Join(dir, f+summary.Suffix)); !os.IsNotExist(err) {
				t.Fatalf("%s: superseded sidecar of %s survived GC", tc.golden, f)
			}
		}
	}
}

// copyGolden copies a committed golden dataset into a temp directory, so
// the migration never touches the committed files.
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
