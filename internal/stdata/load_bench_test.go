package stdata_test

import (
	"runtime"
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// nycBaseFile writes one base file of 12,500 datagen.NYC events — a full
// partition of the benchmark spine's serve corpus, on the same 1e-6 GPS
// grid, so its coordinate columns decode in quant mode with 2- and 3-byte
// deltas as the spine's do (the in-package BenchmarkLoadBase stores random
// floats, which take bits mode) — and returns the schema, the store and
// its metadata. It lives outside package stdata because datagen imports
// stdata.
func nycBaseFile(tb testing.TB) (stdata.Schema, string, *storage.Metadata) {
	tb.Helper()
	sch, ok := stdata.Lookup("nyc")
	if !ok {
		tb.Fatal("nyc schema not registered")
	}
	dir := tb.TempDir()
	if _, err := sch.Ingest(engine.New(engine.Config{Slots: 1}), datagen.NYC(12_500, 1), dir,
		sch.DefaultPlanner(1, 1), selection.IngestOptions{Name: "nyc", SampleFrac: 1, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if meta.NumPartitions() != 1 {
		tb.Fatalf("%d partitions, want 1", meta.NumPartitions())
	}
	return sch, dir, meta
}

// BenchmarkLoadBaseNYC measures pinning nycBaseFile's base file. Run with
// -benchmem.
func BenchmarkLoadBaseNYC(b *testing.B) {
	sch, dir, meta := nycBaseFile(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := sch.LoadBase(dir, meta, 0)
		if err != nil {
			b.Fatal(err)
		}
		if p.Len() != 12_500 {
			b.Fatalf("pinned %d records, want 12500", p.Len())
		}
	}
}

// Ceilings for pinning nycBaseFile's base file, measured at 48
// allocations and 42 bytes a record (0.53 MB): 36 bytes of columns (id,
// lon, lat and t, and a 4-byte dictionary index), a 48-byte run box per
// 16 records — the run index reads the coordinate columns, with no box
// per record — and the file's read buffers. A 48-byte box per record read
// 50 allocations and 91 bytes a record; segments that held typed rows, 86
// allocations and 102 bytes a record.
const (
	loadBaseAllocCeiling       = 52
	loadBaseBytesPerRecCeiling = 46
)

// TestLoadBaseAllocs pins the allocations of one cold LoadBase.
func TestLoadBaseAllocs(t *testing.T) {
	sch, dir, meta := nycBaseFile(t)
	load := func() {
		if _, _, err := sch.LoadBase(dir, meta, 0); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		return // the race build's slices.Grow allocates temporaries
	}
	if allocs := testing.AllocsPerRun(10, load); allocs > loadBaseAllocCeiling {
		t.Errorf("LoadBase of 12500 events: %.0f allocs, ceiling %d", allocs, loadBaseAllocCeiling)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		load()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs / 12_500; b > loadBaseBytesPerRecCeiling {
		t.Errorf("LoadBase of 12500 events: %d bytes a record, ceiling %d", b, loadBaseBytesPerRecCeiling)
	}
}
