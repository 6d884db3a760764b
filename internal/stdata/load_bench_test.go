package stdata_test

import (
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// BenchmarkLoadBaseNYC measures pinning one base file of 12,500
// datagen.NYC events — a full partition of the benchmark spine's serve
// corpus, on the same 1e-6 GPS grid, so its coordinate columns decode in
// quant mode with 2- and 3-byte deltas as the spine's do (the in-package
// BenchmarkLoadBase stores random floats, which take bits mode). It lives
// outside package stdata because datagen imports stdata. Run with
// -benchmem.
func BenchmarkLoadBaseNYC(b *testing.B) {
	sch, ok := stdata.Lookup("nyc")
	if !ok {
		b.Fatal("nyc schema not registered")
	}
	dir := b.TempDir()
	if _, err := sch.Ingest(engine.New(engine.Config{Slots: 1}), datagen.NYC(12_500, 1), dir,
		sch.DefaultPlanner(1, 1), selection.IngestOptions{Name: "nyc", SampleFrac: 1, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		b.Fatal(err)
	}
	if meta.NumPartitions() != 1 {
		b.Fatalf("%d partitions, want 1", meta.NumPartitions())
	}
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
