package selection

import (
	"path/filepath"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/partition"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// TestIncrementalIngestAndMergedSelect covers the paper's §4.1 discussion
// point (3): continuously generated data is indexed in periodic batches and
// the metadata files are merged, so selection prunes across all batches
// without re-partitioning old data.
func TestIncrementalIngestAndMergedSelect(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 4})
	base := t.TempDir()

	// Two daily batches, each T-STR indexed independently.
	metas := map[string]*storage.Metadata{}
	var allData []ev
	for day := 0; day < 2; day++ {
		var batch []ev
		for i := 0; i < 500; i++ {
			batch = append(batch, ev{
				P: geom.Pt(float64(i%100), float64(i%50)),
				T: int64(day*86400 + i*100),
				N: int64(day*1000 + i),
			})
		}
		allData = append(allData, batch...)
		dir := filepath.Join(base, "batch", dayName(day))
		r := engine.Parallelize(ctx, batch, 4)
		meta, err := Ingest(r, dir, evC, evBox, partition.TSTR{GT: 2, GS: 2},
			IngestOptions{Name: dayName(day), SampleFrac: 0.5, Seed: int64(day)})
		if err != nil {
			t.Fatal(err)
		}
		metas[filepath.Join("batch", dayName(day))] = meta
	}

	// Merge the per-batch metadata into one index rooted at base: the
	// partition lists concatenate, each file renamed under its batch dir.
	merged := &storage.Metadata{Name: "merged"}
	for dir, m := range metas {
		merged.Version, merged.BlockRecords = m.Version, m.BlockRecords
		merged.TotalCount += m.TotalCount
		for _, p := range m.Partitions {
			p.File = filepath.Join(dir, p.File)
			merged.Partitions = append(merged.Partitions, p)
		}
	}
	if merged.TotalCount != int64(len(allData)) {
		t.Fatalf("merged count = %d", merged.TotalCount)
	}

	// A day-2-only window prunes every day-1 partition.
	w := Window{Space: geom.Box(0, 0, 100, 50), Time: tempo.New(86400, 2*86400)}
	keep := merged.Prune(w.Space, w.Time)
	if len(keep) == 0 || len(keep) >= merged.NumPartitions() {
		t.Fatalf("merged pruning kept %d of %d", len(keep), merged.NumPartitions())
	}
	var selected int
	for _, id := range keep {
		recs, err := storage.ReadPartition(base, merged, id, evC)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if evBox(r).Intersects(w.Box()) {
				selected++
			}
		}
	}
	want := 0
	for _, r := range allData {
		if evBox(r).Intersects(w.Box()) {
			want++
		}
	}
	if selected != want {
		t.Errorf("merged selection found %d, want %d", selected, want)
	}
}

func dayName(d int) string {
	return []string{"day-0", "day-1"}[d]
}
