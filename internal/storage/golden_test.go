// Backward-compatibility golden tests. The same dataset is committed under
// testdata/ in all three on-disk generations, plus the v1 and v2 copies as
// the migrating compaction pass left them before v1/v2 support was
// dropped (v1-migrated-golden, v2-migrated-golden: metadata.json still at
// version 1 and 2 naming the legacy files, manifest rewrites at format 3).
// The v3 copy must keep reading back exactly the records recorded beside
// it; each migrated copy must keep reading back exactly its own
// records.json (the pass Z-reordered records within each partition) and
// keep working as a live store; the unmigrated v1 and v2 copies must be
// refused with ErrLegacyFormat by every entry point. Regenerate the v3
// copy with `go test ./internal/storage -run TestGolden -update` only when
// intentionally re-seeding (the committed files are the contract;
// regenerating weakens it to a self-test for one commit). The legacy and
// migrated copies cannot be regenerated: no code writes them any more.
package storage_test

import (
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata")

const (
	goldenDir           = "testdata/v1-golden"
	goldenV2Dir         = "testdata/v2-golden"
	goldenV3Dir         = "testdata/v3-golden"
	goldenV1MigratedDir = "testdata/v1-migrated-golden"
	goldenV2MigratedDir = "testdata/v2-migrated-golden"
)

// goldenRecords deterministically builds the dataset committed under
// testdata: two partitions of NYC-style events on disjoint ST tiles.
func goldenRecords() [][]stdata.EventRec {
	rng := rand.New(rand.NewSource(20260805))
	parts := make([][]stdata.EventRec, 2)
	for p := range parts {
		for i := 0; i < 40; i++ {
			parts[p] = append(parts[p], stdata.EventRec{
				ID:   int64(p*1000 + i),
				Loc:  geom.Pt(-74.0+float64(p)*0.5+rng.Float64()*0.5, 40.7+rng.Float64()*0.3),
				Time: int64(p*3600) + rng.Int63n(3600),
				Aux:  "golden",
			})
		}
	}
	return parts
}

// TestGoldenV1DatasetStillReads pins the v1 generation: the committed v1
// dataset as the migrating compaction pass left it still reads back its
// recorded records, holding the same records as the in-memory generator,
// while the unmigrated copy is refused.
func TestGoldenV1DatasetStillReads(t *testing.T) {
	got := readGolden(t, goldenV1MigratedDir, 0)
	parts := goldenRecords()
	for p := range parts {
		if !reflect.DeepEqual(encodedSet(got[p]), encodedSet(parts[p])) {
			t.Fatalf("partition %d: goldenRecords() drifted from the committed records", p)
		}
	}
	checkRefused(t, copyDataset(t, goldenDir), 1)
}

// TestGoldenV2DatasetStillReads pins the v2 generation the same way.
func TestGoldenV2DatasetStillReads(t *testing.T) {
	readGolden(t, goldenV2MigratedDir, 2)
	checkRefused(t, copyDataset(t, goldenV2Dir), 2)
}

// TestGoldenV3DatasetStillReads pins the columnar layout: the committed
// v3-golden files (native column streams, EventRec schema) must keep
// decoding to the recorded records.
func TestGoldenV3DatasetStillReads(t *testing.T) {
	if *updateGolden {
		parts := goldenRecords()
		if err := os.RemoveAll(goldenV3Dir); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.Write(goldenV3Dir, stdata.EventRecC, parts, stdata.EventRec.Box,
			storage.WriteOptions{Name: "v3-golden", BlockRecords: 16}); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(parts, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenV3Dir, "records.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	readGolden(t, goldenV3Dir, 3)
}

// readGolden reads every partition of a committed golden dataset and
// checks it against the records.json beside it, returning the records.
func readGolden(t *testing.T, dir string, wantVersion int) [][]stdata.EventRec {
	t.Helper()
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatalf("golden dataset %s unreadable: %v", dir, err)
	}
	if meta.Version != wantVersion {
		t.Fatalf("%s: version = %d, want %d", dir, meta.Version, wantVersion)
	}
	want := goldenWant(t, dir)
	got := make([][]stdata.EventRec, meta.NumPartitions())
	for i := range got {
		recs, _, err := storage.ReadPartitionPruned(dir, meta, i, stdata.EventRecC, nil)
		if err != nil {
			t.Fatalf("%s partition %d: %v", dir, i, err)
		}
		got[i] = recs
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: records differ from committed golden set", dir)
	}
	return got
}

// copyDataset copies the files of the dataset at src into a fresh temp
// directory, so a test that writes never touches the committed files.
func copyDataset(t *testing.T, src string) string {
	t.Helper()
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

// snapshot returns the bytes of every file in dir by name.
func snapshot(t *testing.T, dir string) map[string][]byte {
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

// checkRefused is the refusal wall on a copy of a committed legacy golden
// dataset at dir: every storage, selection, serving, summary, approximate,
// append and compaction entry point fails with ErrLegacyFormat naming the
// dataset's first partition file and its version, and leaves every file of
// dir as it was — the refused compaction, backfill and append commit
// nothing.
func checkRefused(t *testing.T, dir string, version int) {
	t.Helper()
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	file := meta.Partitions[0].File
	before := snapshot(t, dir)
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	all := selection.Window{Space: goldenFullWindow.Space, Time: goldenFullWindow.Time}
	sel := selection.New(ctx, stdata.EventRecC, stdata.EventRec.Box, nil, selection.Config{})
	// A delta whose manifest entry has no format predates the columnar
	// layout: the delta reader refuses it as v2 without opening the file.
	legacyDelta := storage.DeltaMeta{PartitionMeta: meta.Partitions[0]}
	entries := []struct {
		name    string
		version int
		run     func() error
	}{
		{"ReadPartitionPruned", version, func() error {
			_, _, err := storage.ReadPartitionPruned(dir, meta, 0, stdata.EventRecC, nil)
			return err
		}},
		{"ReadBase", version, func() error {
			_, _, _, err := storage.ReadBase(dir, meta, 0, stdata.EventRecC, stdata.EventRec.Box)
			return err
		}},
		{"ReadDelta", 2, func() error {
			_, _, _, err := storage.ReadDelta(dir, legacyDelta, stdata.EventRecC, nil)
			return err
		}},
		{"selection.Select", version, func() error {
			_, _, err := sel.Select(dir, all)
			return err
		}},
		{"selection.SelectPruned", version, func() error {
			_, _, err := sel.SelectPruned(dir, all)
			return err
		}},
		{"serve.Catalog.Register", version, func() error {
			_, err := serve.NewCatalog().Register("nyc", "nyc", dir)
			return err
		}},
		{"BuildSummaries", version, func() error {
			_, err := sch.BuildSummaries(dir, summary.Config{})
			return err
		}},
		{"Compact", version, func() error {
			_, err := sch.Compact(dir, storage.CompactOptions{MinDeltas: 1, GCGrace: 0})
			return err
		}},
		{"AppendDelta", version, func() error {
			recs := []stdata.EventRec{{ID: 1, Loc: geom.Pt(-73.9, 40.8), Time: 10, Aux: "late"}}
			_, err := storage.AppendDelta(dir, stdata.EventRecC, recs, stdata.EventRec.Box, storage.AppendOptions{})
			return err
		}},
		{"ApproxQuery", version, func() error {
			_, _, err := sch.ApproxQuery(ctx, dir, meta, all, stdata.ApproxRequest{})
			return err
		}},
	}
	for _, e := range entries {
		var le storage.ErrLegacyFormat
		if err := e.run(); !errors.As(err, &le) || le.Dir != dir || le.File != file || le.Version != e.version {
			t.Fatalf("%s: %s returned %v, want ErrLegacyFormat for %s v%d", dir, e.name, err, file, e.version)
		}
	}
	if !reflect.DeepEqual(snapshot(t, dir), before) {
		t.Fatalf("%s: the refused entry points changed the dataset's files", dir)
	}
}

// encodedSet returns recs' wire encodings, sorted: the multiset of bytes a
// partition holds, whatever order its file stores them in.
func encodedSet(recs []stdata.EventRec) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(codec.Marshal(stdata.EventRecC, r))
	}
	sort.Strings(out)
	return out
}

// TestGoldenCrossGeneration is the compatibility matrix in executable
// form: the same logical dataset committed in all three generations — v1
// and v2 as migrated — materializes to byte-identical records: every
// partition's records re-encoded through the wire codec give the same
// multiset of bytes whichever generation first stored them.
func TestGoldenCrossGeneration(t *testing.T) {
	v1 := readGolden(t, goldenV1MigratedDir, 0)
	v2 := readGolden(t, goldenV2MigratedDir, 2)
	v3 := readGolden(t, goldenV3Dir, 3)
	if len(v1) != len(v3) || len(v2) != len(v3) {
		t.Fatalf("partition counts differ: v1=%d v2=%d v3=%d", len(v1), len(v2), len(v3))
	}
	for p := range v3 {
		b3 := encodedSet(v3[p])
		if !reflect.DeepEqual(encodedSet(v1[p]), b3) || !reflect.DeepEqual(encodedSet(v2[p]), b3) {
			t.Fatalf("partition %d: re-encoded bytes differ across generations", p)
		}
	}
}

// TestMigratedGoldensKeepWorking runs a store migrated before v1/v2
// support was dropped through the live write and read paths, on a temp
// copy of each migrated golden: it takes an append, compacts it away,
// backfills summaries, and answers both the exact serving path and the
// approximate one, the exact count inside the approximate envelope.
func TestMigratedGoldensKeepWorking(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	for _, src := range []string{goldenV1MigratedDir, goldenV2MigratedDir} {
		dir := copyDataset(t, src)
		want := goldenWant(t, src)
		meta, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			got, err := storage.ReadPartition(dir, meta, i, stdata.EventRecC)
			if err != nil || !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s partition %d: ReadPartition differs from records.json (%v)", src, i, err)
			}
		}
		extra := make([]stdata.EventRec, 10)
		for i := range extra {
			extra[i] = want[i%len(want)][i]
			extra[i].ID += 10_000
		}
		if _, err := storage.AppendDelta(dir, stdata.EventRecC, extra, stdata.EventRec.Box,
			storage.AppendOptions{BatchID: "extra"}); err != nil {
			t.Fatalf("%s: AppendDelta: %v", src, err)
		}
		st, err := sch.Compact(dir, storage.CompactOptions{MinDeltas: 1, GCGrace: -1})
		if err != nil || st.PartitionsCompacted == 0 || st.DeltasMerged == 0 {
			t.Fatalf("%s: Compact = (%+v, %v), want the append folded in", src, st, err)
		}
		if _, err := sch.BuildSummaries(dir, summary.Config{}); err != nil {
			t.Fatalf("%s: BuildSummaries: %v", src, err)
		}
		if meta, err = storage.ReadMetadata(dir); err != nil {
			t.Fatal(err)
		}
		if err := meta.CheckFormat(dir); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		total := int64(len(extra))
		for _, p := range want {
			total += int64(len(p))
		}
		for wi, w := range []selection.Window{goldenFullWindow, goldenHalfWindow} {
			res, err := sch.ServeQuery(ctx, dir, meta, nil, w, stdata.QueryOptions{Records: true})
			if err != nil {
				t.Fatalf("%s: ServeQuery: %v", src, err)
			}
			exact := res.Stats.SelectedRecords
			if int64(len(res.Records)) != exact || (wi == 0 && exact != total) {
				t.Fatalf("%s: ServeQuery selected %d records (%d returned), the store holds %d",
					src, exact, len(res.Records), total)
			}
			approx, _, err := sch.ApproxQuery(ctx, dir, meta, w, stdata.ApproxRequest{Agg: summary.AggCount})
			if err != nil || approx.Fallback {
				t.Fatalf("%s: ApproxQuery = (%+v, %v), want an answer from sidecars", src, approx, err)
			}
			if exact < approx.CountLo || exact > approx.CountHi {
				t.Fatalf("%s: exact %d outside approximate envelope [%d,%d]", src, exact, approx.CountLo, approx.CountHi)
			}
		}
	}
}
