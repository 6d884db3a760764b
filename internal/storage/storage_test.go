package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/tempo"
)

type rec struct {
	P geom.Point
	T int64
	S string
}

var recC = codec.Codec[rec]{
	Enc: func(w *codec.Writer, v rec) {
		codec.PointC.Enc(w, v.P)
		w.PutVarint(v.T)
		w.PutString(v.S)
	},
	Dec: func(r *codec.Reader) rec {
		return rec{P: codec.PointC.Dec(r), T: r.Varint(), S: r.String()}
	},
	Col: &codec.Columnar[rec]{
		Point:  true,
		HasStr: true,
		Split: func(v rec, b *codec.ColBlock) {
			b.IDs = append(b.IDs, 0)
			b.Lon = append(b.Lon, v.P.X)
			b.Lat = append(b.Lat, v.P.Y)
			b.T = append(b.T, v.T)
			b.Str = append(b.Str, v.S)
		},
		Join: func(b *codec.ColBlock, i int, pay *codec.Reader) rec {
			return rec{P: geom.Pt(b.Lon[i], b.Lat[i]), T: b.T[i], S: b.StrAt(i)}
		},
	},
}

// readDeltaRows is ReadDelta with its columns joined into records.
func readDeltaRows[T any](dir string, dm DeltaMeta, c codec.Codec[T]) ([]T, ReadStats, error) {
	cols, _, st, err := ReadDelta(dir, dm, c, nil)
	if err != nil {
		return nil, st, err
	}
	recs, err := c.Col.Rows(cols)
	return recs, st, err
}

// recRowC is the same wire schema without a columnar description: v3 files
// written with it fall back to the generic row-encoded block payload.
var recRowC = codec.Codec[rec]{Enc: recC.Enc, Dec: recC.Dec}

func recBox(v rec) index.Box { return index.BoxOfPoint(v.P, v.T) }

func makeParts(rng *rand.Rand, nParts, perPart int) [][]rec {
	parts := make([][]rec, nParts)
	for p := range parts {
		for i := 0; i < perPart; i++ {
			parts[p] = append(parts[p], rec{
				P: geom.Pt(float64(p*10)+rng.Float64()*10, rng.Float64()*10),
				T: int64(p*1000) + rng.Int63n(1000),
				S: "attr",
			})
		}
	}
	return parts
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	parts := makeParts(rng, 4, 100)
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.TotalCount != 400 || meta.NumPartitions() != 4 {
		t.Fatalf("meta = %+v", meta)
	}

	loaded, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalCount != 400 || loaded.Version != FormatVersion ||
		loaded.BlockRecords != DefaultBlockRecordsV3 {
		t.Fatalf("loaded meta = %+v", loaded)
	}
	for i := range parts {
		got, err := ReadPartition(dir, loaded, i, recC)
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, parts[i]) {
			t.Fatalf("partition %d mismatch", i)
		}
	}
}

func TestMetadataBoundsAreTight(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	parts := makeParts(rng, 3, 50)
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pm := range meta.Partitions {
		box := pm.Box()
		for _, r := range parts[i] {
			if !box.Contains(recBox(r)) {
				t.Fatalf("partition %d bounds %v miss record %v", i, box, r)
			}
		}
	}
}

func TestPrune(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	// Partition p covers x in [10p, 10p+10), t in [1000p, 1000p+1000).
	parts := makeParts(rng, 5, 50)
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Query hitting only partition 2's space and time.
	got := meta.Prune(geom.Box(21, 0, 24, 10), tempo.New(2100, 2500))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Prune = %v, want [2]", got)
	}
	// Spatially broad but temporally narrow.
	got = meta.Prune(geom.Box(0, 0, 100, 10), tempo.New(3100, 3500))
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("Prune = %v, want [3]", got)
	}
	// Nothing matches.
	if got = meta.Prune(geom.Box(0, 0, 100, 10), tempo.New(90000, 99999)); len(got) != 0 {
		t.Errorf("Prune = %v, want empty", got)
	}
	// Everything matches.
	if got = meta.Prune(geom.Box(0, 0, 100, 10), tempo.New(0, 10000)); len(got) != 5 {
		t.Errorf("Prune = %v, want all 5", got)
	}
}

func TestEmptyPartition(t *testing.T) {
	dir := t.TempDir()
	parts := [][]rec{{}, {{P: geom.Pt(1, 1), T: 5, S: "x"}}}
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartition(dir, meta, 0, recC)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty partition read %d records", len(got))
	}
	// Empty partitions should never survive pruning.
	if ids := meta.Prune(geom.Box(-1e9, -1e9, 1e9, 1e9), tempo.New(-1e15, 1e15)); len(ids) != 1 {
		t.Errorf("Prune over everything = %v, want only non-empty partition", ids)
	}
}

func TestReadPartitionOutOfRange(t *testing.T) {
	dir := t.TempDir()
	meta, err := Write(dir, recC, [][]rec{{}}, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPartition(dir, meta, 5, recC); err == nil {
		t.Error("out-of-range partition should error")
	}
	if _, err := ReadPartition(dir, meta, -1, recC); err == nil {
		t.Error("negative partition should error")
	}
}

func TestCorruptPartitionDetected(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	parts := makeParts(rng, 1, 20)
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, meta.Partitions[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPartition(dir, meta, 0, recC); err == nil {
		t.Error("truncated partition should error")
	}
}

func TestCountMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	parts := makeParts(rng, 1, 10)
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta.Partitions[0].Count = 99
	if _, err := ReadPartition(dir, meta, 0, recC); err == nil {
		t.Error("count mismatch should error")
	}
}

func TestReadMetadataMissing(t *testing.T) {
	if _, err := ReadMetadata(t.TempDir()); err == nil {
		t.Error("missing metadata should error")
	}
}

// TestCompressionShrinksRedundantData: v3's column encodings are the
// store's compression. Clustered records — neighbouring coordinates and
// times near-equal, one repeated string — take fewer bytes in the native
// column layout than in the generic layout's row encodings of the same
// records.
func TestCompressionShrinksRedundantData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := makeParts(rng, 1, 2000)
	ZCluster(parts[0], recBox)
	mc, err := Write(t.TempDir(), recC, parts, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Write(t.TempDir(), recRowC, parts, recBox, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Partitions[0].Bytes >= mr.Partitions[0].Bytes {
		t.Errorf("columns %d B >= rows %d B", mc.Partitions[0].Bytes, mr.Partitions[0].Bytes)
	}
}

// markLegacy rewrites the version in dir's metadata.json to v, turning a
// v3 store into one every file of which reads as legacy format v (1 drops
// the version and block size, as a v1 dataset's metadata has neither) —
// and its deltas keep their own format. The format check runs before any
// file is opened, so the v3 bytes are never looked at.
func markLegacy(t testing.TB, dir string, v int) {
	t.Helper()
	meta, err := readRawMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta.Version = v
	if v <= 1 {
		meta.Version, meta.BlockRecords = 0, 0
	}
	if err := writeMetadata(dir, meta); err != nil {
		t.Fatal(err)
	}
}

// snapshotDir returns the bytes of every file in dir by name.
func snapshotDir(t testing.TB, dir string) map[string][]byte {
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
