// Backward-compatibility golden test: a v1 dataset written by the
// pre-block storage layer is committed under testdata/, and every future
// reader must keep returning exactly the records recorded beside it.
// Regenerate with `go test ./internal/storage -run TestGoldenV1 -update`
// only when intentionally re-seeding (the committed files are the
// contract; regenerating weakens it to a self-test for one commit).
package storage_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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
		// that files written before the block format keep working.
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
	meta, err := storage.ReadMetadata(goldenDir)
	if err != nil {
		t.Fatalf("golden dataset unreadable (run with -update to regenerate): %v", err)
	}
	if meta.Version != 0 {
		t.Fatalf("golden dataset is not v1: version=%d", meta.Version)
	}
	var want [][]stdata.EventRec
	b, err := os.ReadFile(filepath.Join(goldenDir, "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, st, err := storage.ReadPartitionPruned(goldenDir, meta, i, stdata.EventRecC, nil)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("partition %d: records differ from committed golden set", i)
		}
		if st.Blocks != 1 || st.BlocksScanned != 1 {
			t.Fatalf("partition %d: v1 stats %+v", i, st)
		}
	}
	// The in-memory generator still matches the committed records, so a
	// future -update cannot silently change the dataset's content.
	if !reflect.DeepEqual(parts, want) {
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

// TestGoldenV2DatasetStillReads pins the row-major gzip block layout: the
// committed v2-golden files must keep decoding to the recorded records on
// every future reader, including through block-level pruning.
func TestGoldenV2DatasetStillReads(t *testing.T) {
	if *updateGolden {
		writeGolden(t, goldenV2Dir, storage.LegacyOptions{
			Name: "v2-golden", Compress: true, Version: 2, BlockRecords: 16,
		})
	}
	readGolden(t, goldenV2Dir, 2)
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
// generations materializes to byte-identical records — every record
// re-encoded through the wire codec produces the same bytes regardless of
// which format version stored it.
func TestGoldenCrossGeneration(t *testing.T) {
	v1 := readGolden(t, goldenDir, 0)
	v2 := readGolden(t, goldenV2Dir, 2)
	v3 := readGolden(t, goldenV3Dir, 3)
	if len(v1) != len(v2) || len(v1) != len(v3) {
		t.Fatalf("partition counts differ: v1=%d v2=%d v3=%d", len(v1), len(v2), len(v3))
	}
	for p := range v1 {
		if len(v1[p]) != len(v2[p]) || len(v1[p]) != len(v3[p]) {
			t.Fatalf("partition %d: record counts differ: v1=%d v2=%d v3=%d",
				p, len(v1[p]), len(v2[p]), len(v3[p]))
		}
		for i := range v1[p] {
			b1 := codec.Marshal(stdata.EventRecC, v1[p][i])
			b2 := codec.Marshal(stdata.EventRecC, v2[p][i])
			b3 := codec.Marshal(stdata.EventRecC, v3[p][i])
			if !bytes.Equal(b1, b2) || !bytes.Equal(b1, b3) {
				t.Fatalf("partition %d record %d: re-encoded bytes differ across generations", p, i)
			}
		}
	}
}
