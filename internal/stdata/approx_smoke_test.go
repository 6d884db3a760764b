package stdata_test

import (
	"testing"

	"st4ml/internal/bench"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
)

// TestApproxBytesSmoke is the pre-merge acceptance shape for the
// approximate tier (wired into `make check`): over a summarized NYC-like
// store, on the 1% range the sidecar path must read at least 5x fewer
// bytes than the exact block scan, every envelope must contain the exact
// count, and nothing may fall back to a scan. It compares counters, not
// timings.
func TestApproxBytesSmoke(t *testing.T) {
	ctx := engine.New(engine.Config{})
	sch, _ := stdata.Lookup("nyc")
	dir := t.TempDir()
	// Coarse partitioning: summaries earn their keep on partitions holding
	// many blocks, where the exact path decodes whole boundary blocks and
	// the sidecar answers from a few hundred bytes of sketches each.
	if _, err := sch.Ingest(ctx, datagen.NYC(30_000, 23), dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.05, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	if _, err := sch.BuildSummaries(dir, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.New(ctx, stdata.EventRecC, stdata.EventRec.Box, nil, selection.Config{Index: true})

	for _, frac := range []float64{0.01, 0.5} {
		var exactBytes, approxBytes int64
		for _, w := range bench.RandomWindows(datagen.NYCExtent, datagen.Year2013, frac, 4, int64(frac*1000)+23) {
			_, st, err := sel.SelectPruned(dir, w)
			if err != nil {
				t.Fatal(err)
			}
			exactBytes += st.LoadedBytes
			res, _, err := sch.ApproxQuery(ctx, dir, meta, w, stdata.ApproxRequest{Agg: summary.AggCount})
			if err != nil {
				t.Fatal(err)
			}
			approxBytes += res.BytesRead
			if st.SelectedRecords < res.CountLo || st.SelectedRecords > res.CountHi {
				t.Errorf("frac %.2f: exact count %d outside envelope [%d,%d]",
					frac, st.SelectedRecords, res.CountLo, res.CountHi)
			}
			if res.Fallback {
				t.Errorf("frac %.2f: fallback on a summarized store", frac)
			}
		}
		if approxBytes <= 0 || exactBytes <= 0 {
			t.Errorf("frac %.2f: missing byte accounting: exact %d, approx %d", frac, exactBytes, approxBytes)
		}
		if frac == 0.01 && exactBytes < 5*approxBytes {
			t.Errorf("small range: approx read %d bytes vs exact %d — want >= 5x fewer",
				approxBytes, exactBytes)
		}
	}
}
