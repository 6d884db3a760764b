package selection_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/tempo"
)

// benchWindows draws n windows covering 15% of extent on each spatial
// axis and of the year in time, the benchmark spine's window shape.
func benchWindows(extent geom.MBR, n int, seed int64) []selection.Window {
	rng := rand.New(rand.NewSource(seed))
	year := datagen.Year2013
	w, h := extent.Width()*0.15, extent.Height()*0.15
	span := year.Seconds() * 15 / 100
	out := make([]selection.Window, n)
	for i := range out {
		x := extent.MinX + rng.Float64()*(extent.Width()-w)
		y := extent.MinY + rng.Float64()*(extent.Height()-h)
		t := year.Start + rng.Int63n(year.Seconds()-span)
		out[i] = selection.Window{Space: geom.Box(x, y, x+w, y+h), Time: tempo.New(t, t+span)}
	}
	return out
}

// benchStore ingests recs T-STR 12×8 in 512-record blocks — the benchmark
// spine's pipeline_batch stores — and returns a function timing one
// SelectPruned per op, cycling over 16 windows, with the run index on and
// the spine's stage-2 repartition off so the op is Selection's load and
// filter alone.
func benchStore[T any](b *testing.B, recs []T, c codec.Codec[T], boxOf func(T) index.Box, extent geom.MBR) func(*testing.B) {
	ctx := engine.New(engine.Config{})
	dir := filepath.Join(b.TempDir(), "store")
	if _, err := selection.Ingest(engine.Parallelize(ctx, recs, 0), dir, c, boxOf,
		partition.TSTR{GT: 12, GS: 8},
		selection.IngestOptions{Name: "bench", SampleFrac: 0.05, Seed: 1, BlockRecords: 512}); err != nil {
		b.Fatal(err)
	}
	sel := selection.New(ctx, c, boxOf, nil, selection.Config{Index: true})
	windows := benchWindows(extent, 16, 5)
	return func(b *testing.B) {
		var selected int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rdd, st, err := sel.SelectPruned(dir, windows[i%len(windows)])
			if err != nil {
				b.Fatal(err)
			}
			rdd.Count()
			selected += st.SelectedRecords
		}
		b.ReportMetric(float64(selected)/float64(b.N), "selected/op")
	}
}

// BenchmarkSelectPruned measures one pruned window selection over the
// spine's event and trajectory stores (200k NYC events; 20k Porto-like
// trajectories, a quarter generated and each replicated four times with
// jitter). Trajectories exercise the reader's extent test, events its
// point predicate. Run with -benchmem.
func BenchmarkSelectPruned(b *testing.B) {
	events := benchStore(b, datagen.NYC(200_000, 1), stdata.EventRecC, stdata.EventRec.Box, datagen.NYCExtent)
	trajs := benchStore(b, datagen.Enlarge(datagen.Porto(5_001, 2), 4, 20, 120, 3)[:20_000],
		stdata.TrajRecC, stdata.TrajRec.Box, datagen.PortoExtent)
	b.Run("events", events)
	b.Run("trajs", trajs)
}
