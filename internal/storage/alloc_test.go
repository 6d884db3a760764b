package storage

import (
	"math/rand"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// flatRec is a pointer-free record so decode allocations reflect the read
// path itself, not per-record string/slice headers.
type flatRec struct {
	X, Y float64
	T    int64
}

var flatC = codec.Codec[flatRec]{
	Enc: func(w *codec.Writer, v flatRec) {
		w.PutFloat64(v.X)
		w.PutFloat64(v.Y)
		w.PutVarint(v.T)
	},
	Dec: func(r *codec.Reader) flatRec {
		return flatRec{X: r.Float64(), Y: r.Float64(), T: r.Varint()}
	},
}

// flatColC adds the columnar schema, so v3 writes native column streams.
var flatColC = codec.Codec[flatRec]{
	Enc: flatC.Enc,
	Dec: flatC.Dec,
	Col: &codec.Columnar[flatRec]{
		Point: true,
		Split: func(v flatRec, b *codec.ColBlock) {
			b.IDs = append(b.IDs, 0)
			b.Lon = append(b.Lon, v.X)
			b.Lat = append(b.Lat, v.Y)
			b.T = append(b.T, v.T)
		},
		Join: func(b *codec.ColBlock, i int, pay *codec.Reader) flatRec {
			return flatRec{X: b.Lon[i], Y: b.Lat[i], T: b.T[i]}
		},
	},
}

func flatBox(v flatRec) index.Box {
	return index.Box{
		Min: [index.Dims]float64{v.X, v.Y, float64(v.T)},
		Max: [index.Dims]float64{v.X, v.Y, float64(v.T)},
	}
}

func flatDataset(t testing.TB, dir string, c codec.Codec[flatRec], n, blockRecords int) *Metadata {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	part := make([]flatRec, n)
	for i := range part {
		part[i] = flatRec{X: rng.Float64() * 100, Y: rng.Float64() * 100, T: int64(i)}
	}
	meta, err := Write(dir, c, [][]flatRec{part}, flatBox, WriteOptions{
		Name: "alloc", BlockRecords: blockRecords,
	})
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// allocCeiling bounds one full read of 2048 records across 8 blocks, in
// either v3 layout. The fixed costs are the result slice, file handle,
// footer index, and a handful of error-path-free bookkeeping allocations;
// block payload buffers come from the codec pools and must NOT scale with
// record or block count. The ceiling is deliberately loose so the test
// only fires on a real regression — e.g. losing pooling would add ~2
// allocs per block and tens of KiB per read, blowing well past it.
const allocCeiling = 150

func TestReadPartitionAllocCeiling(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    codec.Codec[flatRec]
	}{
		// The generic row layout of a codec without a columnar schema.
		{"plain", flatC},
		// The native layout, decoding pooled column slices.
		{"v3", flatColC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			meta := flatDataset(t, dir, tc.c, 2048, 256)
			read := func() {
				out, err := ReadPartition(dir, meta, 0, tc.c)
				if err != nil || len(out) != 2048 {
					t.Fatalf("read: %d recs, %v", len(out), err)
				}
			}
			read() // warm the pools so steady-state is what's measured
			got := testing.AllocsPerRun(20, read)
			if got > allocCeiling {
				t.Errorf("ReadPartition (%s) allocs/op = %.0f, ceiling %v — pooled buffers regressed?",
					tc.name, got, allocCeiling)
			}
		})
	}
}

func benchRead(b *testing.B, windows []index.Box) {
	dir := b.TempDir()
	meta := flatDataset(b, dir, flatColC, 64<<10, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, st, err := ReadPartitionPruned(dir, meta, 0, flatColC, windows)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
		_ = st
	}
}

func BenchmarkReadPartitionV3(b *testing.B) { benchRead(b, nil) }

// pruneWindow covers ~1/32 of the time axis; flatDataset records are
// time-ordered so most blocks prune, and the gap to the full-scan
// benchmark is the pruning win.
func pruneWindow(n int) []index.Box {
	return []index.Box{{
		Min: [index.Dims]float64{-1e9, -1e9, 0},
		Max: [index.Dims]float64{1e9, 1e9, float64(n / 32)},
	}}
}

// BenchmarkReadPartitionV3Pruned additionally engages the columnar
// per-record predicate: survivors alone are materialized.
func BenchmarkReadPartitionV3Pruned(b *testing.B) {
	benchRead(b, pruneWindow(64<<10))
}
