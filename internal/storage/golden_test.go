// Backward-compatibility golden test: the same dataset is committed under
// testdata/ in all three on-disk generations. The v3 copy must keep
// reading back exactly the records recorded beside it; the v1 and v2
// copies must keep migrating — one compaction pass over a temp copy — to
// the same records. Regenerate with
// `go test ./internal/storage -run TestGolden -update` only when
// intentionally re-seeding (the committed files are the contract;
// regenerating weakens it to a self-test for one commit).
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
	"st4ml/internal/geom"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite golden testdata")

const (
	goldenDir   = "testdata/v1-golden"
	goldenV2Dir = "testdata/v2-golden"
	goldenV3Dir = "testdata/v3-golden"
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

func TestGoldenV1DatasetStillReads(t *testing.T) {
	parts := goldenRecords()
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		// Version 1 pins the legacy monolithic layout — the whole point is
		// that files written before the block format keep migrating.
		_, err := storage.WriteLegacy(goldenDir, stdata.EventRecC, parts,
			stdata.EventRec.Box,
			storage.LegacyOptions{Name: "v1-golden", Compress: true, Version: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(parts, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(goldenDir, "records.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	readMigrated(t, goldenDir, 0)
	// The in-memory generator still matches the committed records, so a
	// future -update cannot silently change the dataset's content.
	if !reflect.DeepEqual(parts, goldenWant(t, goldenDir)) {
		t.Fatal("goldenRecords() drifted from committed records.json")
	}
}

// writeGolden (re)generates one golden dataset directory for -update. The
// legacy generations come from the fixture writer; Version 3 goes through
// storage.Write, so the v3 golden pins what the product writes.
func writeGolden(t *testing.T, dir string, opts storage.LegacyOptions) {
	t.Helper()
	parts := goldenRecords()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.WriteLegacy(dir, stdata.EventRecC, parts, stdata.EventRec.Box, opts); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(parts, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "records.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGolden reads every partition of a committed golden dataset and
// checks it against the records.json beside it, returning the records.
func readGolden(t *testing.T, dir string, wantVersion int) [][]stdata.EventRec {
	t.Helper()
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatalf("golden dataset %s unreadable (run with -update to regenerate): %v", dir, err)
	}
	if meta.Version != wantVersion {
		t.Fatalf("%s: version = %d, want %d", dir, meta.Version, wantVersion)
	}
	var want [][]stdata.EventRec
	b, err := os.ReadFile(filepath.Join(dir, "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
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
// directory, so a migration never touches the committed golden files.
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

// readMigrated migrates a temp copy of the committed legacy golden dataset
// at src — the query path refuses it with ErrLegacyFormat until the one
// compaction pass rewrites every partition as v3 — and returns each
// partition's records, checked against records.json as a multiset
// (compaction Z-reorders records within a partition).
func readMigrated(t *testing.T, src string, wantVersion int) [][]stdata.EventRec {
	t.Helper()
	dir := copyDataset(t, src)
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatalf("golden dataset %s unreadable (run with -update to regenerate): %v", src, err)
	}
	if meta.Version != wantVersion {
		t.Fatalf("%s: version = %d, want %d", src, meta.Version, wantVersion)
	}
	var le storage.ErrLegacyFormat
	if _, _, err := storage.ReadPartitionPruned(dir, meta, 0, stdata.EventRecC, nil); !errors.As(err, &le) {
		t.Fatalf("%s: legacy read returned %v, want ErrLegacyFormat", src, err)
	}
	sch, _ := stdata.Lookup("nyc")
	st, err := sch.Compact(dir, storage.CompactOptions{GCGrace: -1})
	if err != nil {
		t.Fatalf("%s: migrate: %v", src, err)
	}
	if st.PartitionsCompacted != meta.NumPartitions() {
		t.Fatalf("%s: migration rewrote %d of %d partitions", src, st.PartitionsCompacted, meta.NumPartitions())
	}
	if meta, err = storage.ReadMetadata(dir); err != nil {
		t.Fatal(err)
	}
	want := goldenWant(t, src)
	got := make([][]stdata.EventRec, meta.NumPartitions())
	for i := range got {
		if got[i], err = storage.ReadPartition(dir, meta, i, stdata.EventRecC); err != nil {
			t.Fatalf("%s partition %d after migration: %v", src, i, err)
		}
		if !reflect.DeepEqual(encodedSet(got[i]), encodedSet(want[i])) {
			t.Fatalf("%s partition %d: migrated records differ from committed golden set", src, i)
		}
	}
	return got
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

// TestGoldenV2DatasetStillReads pins the row-major gzip block layout: the
// committed v2-golden files must keep migrating to the recorded records.
func TestGoldenV2DatasetStillReads(t *testing.T) {
	if *updateGolden {
		writeGolden(t, goldenV2Dir, storage.LegacyOptions{
			Name: "v2-golden", Compress: true, Version: 2, BlockRecords: 16,
		})
	}
	readMigrated(t, goldenV2Dir, 2)
}

// TestGoldenV3DatasetStillReads pins the columnar layout: the committed
// v3-golden files (native column streams, EventRec schema) must keep
// decoding to the recorded records.
func TestGoldenV3DatasetStillReads(t *testing.T) {
	if *updateGolden {
		writeGolden(t, goldenV3Dir, storage.LegacyOptions{
			Name: "v3-golden", Version: 3, BlockRecords: 16,
		})
	}
	readGolden(t, goldenV3Dir, 3)
}

// TestGoldenCrossGeneration is the compatibility matrix in executable
// form: the same logical dataset committed under all three on-disk
// generations materializes — v1 and v2 after migration — to byte-identical
// records: every partition's records re-encoded through the wire codec
// give the same multiset of bytes whichever format version stored them.
func TestGoldenCrossGeneration(t *testing.T) {
	v1 := readMigrated(t, goldenDir, 0)
	v2 := readMigrated(t, goldenV2Dir, 2)
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
