// The delta layer's backward-compatibility golden: testdata/v3-delta-golden
// is a two-partition v3 store (goldenRecords, 16 records a block) plus two
// appends of 24 records each, written by the per-partition delta layout
// that preceded shared append files — one delta-PPPPP-SSSSSSSS.stp file
// per partition and append, manifest entries naming no block run. The
// current writer cannot produce that layout, so the directory has no
// -update path: it is the contract that such stores keep reading.
// records.json holds each partition's live view (base, then its deltas in
// manifest order) and deltas.json each manifest entry's records.
package storage_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"st4ml/internal/geom"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

const goldenDeltaDir = "testdata/v3-delta-golden"

// readJSON decodes the JSON file name under dir into v.
func readJSON(t *testing.T, dir, name string, v any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDeltaLayoutStillReads pins the old delta layout: the committed
// store reads to its recorded records, ReadDelta returns each manifest
// entry's records in order, and one compaction pass over a copy folds
// every delta into its base with the same records. A second copy takes an
// append in the current layout beside the old deltas and reads, before and
// after compaction, as both together.
func TestGoldenDeltaLayoutStillReads(t *testing.T) {
	var want, wantDeltas [][]stdata.EventRec
	readJSON(t, goldenDeltaDir, "records.json", &want)
	readJSON(t, goldenDeltaDir, "deltas.json", &wantDeltas)

	meta, err := storage.ReadMetadata(goldenDeltaDir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumPartitions() != len(want) || meta.DeltaCount() != len(wantDeltas) {
		t.Fatalf("golden view has %d partitions and %d deltas, recorded %d and %d",
			meta.NumPartitions(), meta.DeltaCount(), len(want), len(wantDeltas))
	}
	for i := range want {
		got, _, err := storage.ReadPartitionPruned(goldenDeltaDir, meta, i, stdata.EventRecC, nil)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("partition %d: records differ from records.json", i)
		}
	}
	mf, err := storage.ReadManifest(goldenDeltaDir)
	if err != nil {
		t.Fatal(err)
	}
	for k, dm := range mf.Deltas {
		if dm.NumBlocks != 0 || !strings.HasPrefix(dm.File, "delta-") {
			t.Fatalf("entry %d is not an old-layout delta: %+v", k, dm)
		}
		cols, _, _, err := storage.ReadDelta(goldenDeltaDir, dm, stdata.EventRecC, nil)
		if err != nil {
			t.Fatalf("entry %d: %v", k, err)
		}
		got, err := stdata.EventRecC.Col.Rows(cols)
		if err != nil {
			t.Fatalf("entry %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, wantDeltas[k]) {
			t.Fatalf("entry %d (%s): records differ from deltas.json", k, dm.File)
		}
	}

	// One compaction pass folds every delta into its partition's base.
	dir := copyDataset(t, goldenDeltaDir)
	compactAll(t, dir, len(want), len(wantDeltas))
	if meta, err = storage.ReadMetadata(dir); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		got, err := storage.ReadPartition(dir, meta, i, stdata.EventRecC)
		if err != nil {
			t.Fatalf("partition %d after compaction: %v", i, err)
		}
		if !reflect.DeepEqual(encodedSet(got), encodedSet(want[i])) {
			t.Fatalf("partition %d: compacted records differ from records.json", i)
		}
	}

	// Another copy takes an append in the current layout beside the old
	// deltas: the mixed store reads, and compacts, to both together.
	dir = copyDataset(t, goldenDeltaDir)
	rng := rand.New(rand.NewSource(20261020))
	var batch []stdata.EventRec
	for i := 0; i < 20; i++ {
		p := i % 2
		batch = append(batch, stdata.EventRec{
			ID:   int64(9000 + i),
			Loc:  geom.Pt(-74.0+float64(p)*0.5+rng.Float64()*0.5, 40.7+rng.Float64()*0.3),
			Time: int64(p*3600) + rng.Int63n(3600),
			Aux:  "append",
		})
	}
	if _, err := storage.AppendDelta(dir, stdata.EventRecC, batch, stdata.EventRec.Box,
		storage.AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	var all []stdata.EventRec
	for _, p := range want {
		all = append(all, p...)
	}
	all = append(all, batch...)
	if got := liveRecords(t, dir); !reflect.DeepEqual(encodedSet(got), encodedSet(all)) {
		t.Fatalf("mixed store reads %d records, want the %d recorded and appended", len(got), len(all))
	}
	compactAll(t, dir, len(want), len(wantDeltas)+2)
	if got := liveRecords(t, dir); !reflect.DeepEqual(encodedSet(got), encodedSet(all)) {
		t.Fatalf("compacted mixed store reads %d records, want %d", len(got), len(all))
	}
}

// compactAll runs one GCGrace 0 pass over dir, checks it folded every
// delta, and checks no delta file is left on disk.
func compactAll(t *testing.T, dir string, parts, deltas int) {
	t.Helper()
	st, err := storage.Compact(dir, stdata.EventRecC, stdata.EventRec.Box,
		storage.CompactOptions{MinDeltas: 1, GCGrace: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsCompacted != parts || st.DeltasMerged != deltas {
		t.Fatalf("compaction %+v, want %d partitions and %d deltas", st, parts, deltas)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "delta-") {
			t.Fatalf("delta file %s survived GC", e.Name())
		}
	}
}

// liveRecords reads every partition of dir's live view.
func liveRecords(t *testing.T, dir string) []stdata.EventRec {
	t.Helper()
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []stdata.EventRec
	for i := 0; i < meta.NumPartitions(); i++ {
		recs, err := storage.ReadPartition(dir, meta, i, stdata.EventRecC)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		out = append(out, recs...)
	}
	return out
}
