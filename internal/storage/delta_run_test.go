package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
)

// deltaFileName names partition pi's delta with sequence seq in the layout
// before shared files, one file per partition and append — what tests
// that plant a hand-made delta in a store name it.
func deltaFileName(pi int, seq int64) string {
	return fmt.Sprintf("delta-%05d-%08d.stp", pi, seq)
}

// spreadBatch returns n records drawn from every partition's tile of
// makeParts(_, nParts, _), so an append routes to each of them.
func spreadBatch(rng *rand.Rand, nParts, n int) []rec {
	var out []rec
	for _, p := range makeParts(rng, nParts, n/nParts) {
		out = append(out, p...)
	}
	return out
}

// deltaFiles returns the names of the delta files in dir.
func deltaFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "delta-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestAppendWritesOneFile pins the append layout: however many partitions
// an append routes to, it writes one delta file, and the manifest lists one
// entry per partition in ascending partition order with consecutive
// sequence numbers, each naming its own run of the file's blocks with the
// run's stored bytes. Every entry reads back through ReadDelta as exactly
// its partition's share of the batch.
func TestAppendWritesOneFile(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	parts := makeParts(rng, 4, 50)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	var combined []rec
	for _, p := range parts {
		combined = append(combined, p...)
	}
	for b := 0; b < 2; b++ {
		batch := spreadBatch(rng, 4, 60)
		combined = append(combined, batch...)
		mf, err := AppendDelta(dir, recC, batch, recBox, AppendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if files := deltaFiles(t, dir); len(files) != b+1 {
			t.Fatalf("append %d: %d delta files on disk, want %d: %v", b, len(files), b+1, files)
		}
		fresh := mf.Deltas[len(mf.Deltas)-4:]
		st, err := os.Stat(filepath.Join(dir, fresh[0].File))
		if err != nil {
			t.Fatal(err)
		}
		var count, stored int64
		next := 0
		for k, dm := range fresh {
			if dm.File != appendFileName(fresh[0].Seq) || dm.Partition != k ||
				dm.Seq != fresh[0].Seq+int64(k) || dm.FirstBlock != next || dm.NumBlocks <= 0 {
				t.Fatalf("append %d entry %d: %+v", b, k, dm)
			}
			next += dm.NumBlocks
			recs, rst, err := readDeltaRows(dir, dm, recC)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(recs)) != dm.Count || rst.Blocks != dm.NumBlocks {
				t.Fatalf("entry %d read %d records in %d blocks, manifest says %d in %d",
					k, len(recs), rst.Blocks, dm.Count, dm.NumBlocks)
			}
			for _, r := range recs {
				if r.P.X < float64(10*k) || r.P.X > float64(10*k+10) {
					t.Fatalf("entry %d holds a record of another tile: %+v", k, r)
				}
			}
			count += dm.Count
			stored += dm.Bytes
		}
		if count != int64(len(batch)) {
			t.Fatalf("entries count %d records, batch has %d", count, len(batch))
		}
		// The runs' stored bytes are the file less its magic, footer and
		// trailer.
		if stored <= 0 || stored >= st.Size()-blockHeaderLen-trailerLen {
			t.Fatalf("runs store %d bytes of a %d-byte file", stored, st.Size())
		}
	}
	if got, want := readAll(t, dir, nil), canonical(combined); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged read %d records, want %d", len(got), len(want))
	}
}

// TestAppendDeterministic appends one batch that routes to eight
// partitions into eight fresh copies of one store: every copy must commit
// the same manifest and the same delta file bytes, which holds only when
// sequence numbers follow the partition order rather than map iteration.
func TestAppendDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	parts := makeParts(rng, 8, 20)
	batch := spreadBatch(rng, 8, 80)
	var first map[string][]byte
	for c := 0; c < 8; c++ {
		dir := t.TempDir()
		if _, err := Write(dir, recC, parts, recBox, WriteOptions{BlockRecords: 8}); err != nil {
			t.Fatal(err)
		}
		mf, err := AppendDelta(dir, recC, batch, recBox, AppendOptions{BatchID: "b"})
		if err != nil {
			t.Fatal(err)
		}
		if len(mf.Deltas) < 4 {
			t.Fatalf("batch routed to %d partitions, want ≥ 4", len(mf.Deltas))
		}
		got := map[string][]byte{}
		for _, name := range append(deltaFiles(t, dir), ManifestFile) {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got[name] = b
		}
		if first == nil {
			first = got
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("copy %d holds files %v, copy 0 %v", c, sortedKeys(got), sortedKeys(first))
		}
		for name, b := range got {
			if !bytes.Equal(b, first[name]) {
				t.Fatalf("copy %d: %s differs from copy 0", c, name)
			}
		}
	}
}

func sortedKeys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sharedStore writes a four-partition store and appends one batch that
// routes to all four, returning the directory and the committed entries.
func sharedStore(t testing.TB) (string, []DeltaMeta) {
	t.Helper()
	rng := rand.New(rand.NewSource(227))
	dir := t.TempDir()
	if _, err := Write(dir, recC, makeParts(rng, 4, 30), recBox, WriteOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	mf, err := AppendDelta(dir, recC, spreadBatch(rng, 4, 48), recBox, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Deltas) != 4 {
		t.Fatalf("batch routed to %d partitions, want 4", len(mf.Deltas))
	}
	return dir, mf.Deltas
}

// multiRunFuzzSeed returns the bytes of sharedStore's delta file, one run
// per partition, and the manifest entries that name its runs, for
// FuzzV3Block.
func multiRunFuzzSeed(t testing.TB) ([]byte, []DeltaMeta) {
	t.Helper()
	dir, deltas := sharedStore(t)
	raw, err := os.ReadFile(filepath.Join(dir, deltas[0].File))
	if err != nil {
		t.Fatal(err)
	}
	return raw, deltas
}

// TestDeltaRunOutOfRange feeds the reader entries whose run the footer
// does not hold — negative, empty, past the end, wrapping — or whose run
// holds another record count: every read, through ReadDelta and through
// the merge-on-read reader compaction reads with, fails with a corruption
// error and none panics.
func TestDeltaRunOutOfRange(t *testing.T) {
	dir, deltas := sharedStore(t)
	total := 0
	for _, dm := range deltas {
		total += dm.NumBlocks
	}
	cases := []struct {
		name       string
		first, num int
	}{
		{"negative first", -1, 1},
		{"negative num", 0, -1},
		{"first without num", 1, 0},
		{"first past end", total, 1},
		{"num past end", 0, total + 1},
		{"run past end", total - 1, 2},
		{"wrapping num", 1, math.MaxInt},
		{"wrapping first", math.MaxInt, 1},
		{"min first", math.MinInt, 1},
		{"another run's count", 0, total},
	}
	for _, tc := range cases {
		dm := deltas[1]
		dm.FirstBlock, dm.NumBlocks = tc.first, tc.num
		var err error
		if perr := codec.Catch(func() { _, _, _, err = ReadDelta(dir, dm, recC, nil) }); perr != nil {
			t.Fatalf("%s: ReadDelta panicked: %v", tc.name, perr)
		}
		if !errors.As(err, new(codec.ErrCorrupt)) {
			t.Fatalf("%s: ReadDelta returned %v, want a corruption error", tc.name, err)
		}
		if perr := codec.Catch(func() { _, _, err = readDelta(dir, dm, recC, nil) }); perr != nil {
			t.Fatalf("%s: compaction read panicked: %v", tc.name, perr)
		}
		if !errors.As(err, new(codec.ErrCorrupt)) {
			t.Fatalf("%s: compaction read returned %v, want a corruption error", tc.name, err)
		}
	}
}

// TestPartialCompactionKeepsSharedFile compacts only some of the
// partitions an append's file serves: the file must survive a GCGrace 0
// pass while any entry names it, and every read must answer as before.
func TestPartialCompactionKeepsSharedFile(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	parts := makeParts(rng, 4, 30)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	shared, err := AppendDelta(dir, recC, spreadBatch(rng, 4, 48), recBox, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharedFile := shared.Deltas[0].File
	// A second batch of copies of partitions 0 and 1's own records routes
	// to those two only, taking them to two deltas each.
	second := append(append([]rec{}, parts[0][:10]...), parts[1][:10]...)
	mf, err := AppendDelta(dir, recC, second, recBox, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh := mf.Deltas[len(shared.Deltas):]; len(fresh) != 2 || fresh[0].Partition != 0 || fresh[1].Partition != 1 {
		t.Fatalf("second batch committed %+v, want partitions 0 and 1", fresh)
	}
	windows := map[string][]index.Box{"full": nil}
	for i := 0; i < 4; i++ {
		windows["w"+strconv.Itoa(i)] = []index.Box{randomWindow(rng)}
	}
	before := map[string][]string{}
	for name, w := range windows {
		before[name] = readAll(t, dir, w)
	}

	st, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 2, GCGrace: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsCompacted != 2 || st.DeltasMerged != 4 {
		t.Fatalf("partial pass %+v, want 2 partitions and 4 deltas", st)
	}
	if files := deltaFiles(t, dir); len(files) != 1 || files[0] != sharedFile {
		t.Fatalf("delta files after the partial pass: %v, want [%s]", files, sharedFile)
	}
	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.DeltaCount() != 2 || len(meta.Deltas(2)) != 1 || len(meta.Deltas(3)) != 1 {
		t.Fatalf("live deltas after the partial pass: %d", meta.DeltaCount())
	}
	for name, w := range windows {
		if got := readAll(t, dir, w); !reflect.DeepEqual(got, before[name]) {
			t.Fatalf("%s: %d records after the partial pass, %d before", name, len(got), len(before[name]))
		}
	}

	// The last pass folds the remaining runs and collects the file.
	if _, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: 0}); err != nil {
		t.Fatal(err)
	}
	if files := deltaFiles(t, dir); len(files) != 0 {
		t.Fatalf("delta files after the full pass: %v", files)
	}
	if got := readAll(t, dir, nil); !reflect.DeepEqual(got, before["full"]) {
		t.Fatal("full pass changed the records")
	}
}

// randomWindow returns a window over part of makeParts' tiles.
func randomWindow(rng *rand.Rand) index.Box {
	x, y, t := rng.Float64()*30, rng.Float64()*8, rng.Int63n(3000)
	return index.Box{
		Min: [index.Dims]float64{x, y, float64(t)},
		Max: [index.Dims]float64{x + 12, y + 4, float64(t + 1500)},
	}
}

// zclusterReference is ZCluster as it ordered records through
// sort.SliceStable; the curve keys are the same, so the two orders must
// match record for record.
func zclusterReference(recs []rec) []rec {
	out := append([]rec{}, recs...)
	if len(out) < 2 {
		return out
	}
	bounds := index.EmptyBox()
	for _, r := range out {
		bounds = bounds.Union(recBox(r))
	}
	window := bounds.Temporal()
	binSec := (window.End - window.Start) / 16
	if binSec < 1 {
		binSec = 1
	}
	curve := index.NewZCurve3D(bounds.Spatial(), window, 8, binSec)
	key := func(r rec) uint64 {
		c := recBox(r).Center()
		return curve.Key(geom.Pt(c[0], c[1]), int64(c[2]))
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// TestZClusterMatchesStableSort pins ZCluster's order to the stable sort
// it replaces, on inputs dominated by equal keys: a handful of distinct
// points, a single record, and records that are all alike but for a tag
// the order must keep.
func TestZClusterMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(233))
	tagged := func(n int, at func(i int) rec) []rec {
		out := make([]rec, n)
		for i := range out {
			out[i] = at(i)
			out[i].S = strconv.Itoa(i)
		}
		return out
	}
	pts := []rec{
		{P: geom.Pt(1, 1), T: 10}, {P: geom.Pt(9, 2), T: 500},
		{P: geom.Pt(4, 7), T: 900}, {P: geom.Pt(1, 1), T: 990},
	}
	inputs := map[string][]rec{
		"many equal keys": tagged(500, func(int) rec { return pts[rng.Intn(len(pts))] }),
		"single record":   tagged(1, func(int) rec { return pts[0] }),
		"all equal":       tagged(300, func(int) rec { return pts[1] }),
		"random":          makeParts(rng, 1, 400)[0],
	}
	for name, in := range inputs {
		got := append([]rec{}, in...)
		ZCluster(got, recBox)
		if want := zclusterReference(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ZCluster order differs from the stable sort", name)
		}
	}
}
