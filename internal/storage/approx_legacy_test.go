// The v1/v2 half of the approximate tier's statistical wall. A legacy
// dataset migrated by one compaction pass must answer with the same
// containment guarantee as one ingested as v3, including boundary scans
// over the migrated blocks. It lives here rather than beside the v3 half
// (stdata's TestApproxMetamorphicWall) because only this package's tests
// can still write v1/v2 files.
package storage_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/tempo"
)

// approxEvents is stdata's wall corpus: a seeded clustered corpus over
// [0,100)² × [0,1000) — five gaussian hot spots plus a uniform background.
func approxEvents(rng *rand.Rand, n int) []stdata.EventRec {
	type spot struct{ x, y, t, sx, st float64 }
	spots := make([]spot, 5)
	for i := range spots {
		spots[i] = spot{
			x: rng.Float64() * 100, y: rng.Float64() * 100, t: rng.Float64() * 1000,
			sx: 2 + rng.Float64()*6, st: 20 + rng.Float64()*80,
		}
	}
	clip := func(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }
	out := make([]stdata.EventRec, n)
	for i := range out {
		var x, y, tm float64
		if rng.Float64() < 0.8 {
			s := spots[rng.Intn(len(spots))]
			x = clip(s.x+rng.NormFloat64()*s.sx, 0, 100)
			y = clip(s.y+rng.NormFloat64()*s.sx, 0, 100)
			tm = clip(s.t+rng.NormFloat64()*s.st, 0, 1000)
		} else {
			x, y, tm = rng.Float64()*100, rng.Float64()*100, rng.Float64()*1000
		}
		out[i] = stdata.EventRec{ID: int64(i % 37), Loc: geom.Pt(x, y), Time: int64(tm), Aux: "e"}
	}
	return out
}

// approxWindow draws a seeded window whose edge length scales with f
// (fraction of the domain per axis), clipped to the domain.
func approxWindow(rng *rand.Rand, f float64) selection.Window {
	ex, et := 100*f, 1000*f
	x := rng.Float64() * (100 - ex)
	y := rng.Float64() * (100 - ex)
	tm := rng.Float64() * (1000 - et)
	return selection.Window{
		Space: geom.Box(x, y, x+ex, y+ex),
		Time:  tempo.New(int64(tm), int64(tm+et)),
	}
}

// checkContainment asserts exact ∈ [estimate−bound, estimate+bound] for one
// finalized result against brute-forced answers (quantiles by the
// rank-ceil(q·n) order statistic), and that per-partition provenance sums
// to the result's totals.
func checkContainment(t *testing.T, tag string, res *summary.Result, recs []stdata.EventRec, w selection.Window, q float64) {
	t.Helper()
	wb := w.Box()
	var exact int64
	var vals []float64
	for _, r := range recs {
		if r.Box().Intersects(wb) {
			exact++
			vals = append(vals, float64(r.Time))
		}
	}
	if exact < res.CountLo || exact > res.CountHi {
		t.Fatalf("%s: exact count %d outside [%d,%d]", tag, exact, res.CountLo, res.CountHi)
	}
	const eps = 1e-9
	switch res.Agg {
	case summary.AggCount:
		if float64(exact) < res.Estimate-res.Bound-eps || float64(exact) > res.Estimate+res.Bound+eps {
			t.Fatalf("%s: exact count %d outside %v±%v", tag, exact, res.Estimate, res.Bound)
		}
	case summary.AggHist:
		for i, c := range res.Cells {
			var ce int64
			for _, r := range recs {
				if c.Box.Intersects(r.Box()) && r.Box().Intersects(wb) {
					ce++
				}
			}
			if ce < c.Lo || ce > c.Hi {
				t.Fatalf("%s: cell %d exact %d outside [%d,%d]", tag, i, ce, c.Lo, c.Hi)
			}
			if float64(ce) < c.Estimate-c.Bound-eps || float64(ce) > c.Estimate+c.Bound+eps {
				t.Fatalf("%s: cell %d exact %d outside %v±%v", tag, i, ce, c.Estimate, c.Bound)
			}
		}
	case summary.AggQuantile:
		if exact == 0 {
			break // undefined; the count envelope qualifies the empty selection
		}
		sort.Float64s(vals)
		ex := vals[max(1, int(math.Ceil(q*float64(len(vals)))))-1]
		if ex < res.Estimate-res.Bound-eps || ex > res.Estimate+res.Bound+eps {
			t.Fatalf("%s: exact quantile %v outside %v±%v", tag, ex, res.Estimate, res.Bound)
		}
	}
	if res.Exact && res.Bound != 0 {
		t.Fatalf("%s: Exact with non-zero bound %v", tag, res.Bound)
	}
	var sb, scb, scr int64
	for _, p := range res.Parts {
		sb += p.SummaryBlocks
		scb += p.ScannedBlocks
		scr += p.ScannedRecords
	}
	if sb != res.SummaryBlocks || scb != res.ScannedBlocks || scr != res.ScannedRecords {
		t.Fatalf("%s: provenance drift: parts sum to (%d,%d,%d), totals (%d,%d,%d)",
			tag, sb, scb, scr, res.SummaryBlocks, res.ScannedBlocks, res.ScannedRecords)
	}
}

// TestApproxLegacyMetamorphicWall runs the approximate wall over migrated
// v1 and v2 datasets: legacy format × planner layout × block size ×
// boundary mode × window selectivity × aggregate, every combination
// through the full on-disk ApproxQuery path. Each layout is planned exactly
// as an ingest would (schema planner, Z-clustered partitions), rewritten
// in its legacy generation by the fixture writer, migrated to v3 by one
// compaction pass (a v1 dataset's rewrites take DefaultBlockRecords, a v2
// dataset's its own block size), and summarized. 3 layouts × 6 windows ×
// 3 aggregates = 54 seeded combinations, on the corpus and window seeds of
// stdata's v3 half.
func TestApproxLegacyMetamorphicWall(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	rng := rand.New(rand.NewSource(412))
	recs := approxEvents(rng, 700)

	layouts := []struct {
		name         string
		version      int
		blockRecords int
		gt, gs       int
		scanBoundary bool
	}{
		{"v1-mono", 1, 0, 2, 2, false},
		{"v2-b16", 2, 16, 2, 2, false},
		{"v2-b64-scan", 2, 64, 3, 3, true},
	}
	fracs := []float64{0.05, 0.1, 0.2, 0.5, 0.8, 1.0}
	aggs := []string{summary.AggCount, summary.AggHist, summary.AggQuantile}

	for _, lay := range layouts {
		planned := t.TempDir()
		pm, err := sch.Ingest(ctx, recs, planned, sch.DefaultPlanner(lay.gt, lay.gs),
			selection.IngestOptions{Name: lay.name, SampleFrac: 0.5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		parts := make([][]stdata.EventRec, pm.NumPartitions())
		for i := range parts {
			if parts[i], err = storage.ReadPartition(planned, pm, i, stdata.EventRecC); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		meta, err := storage.WriteLegacy(dir, stdata.EventRecC, parts, stdata.EventRec.Box,
			storage.LegacyOptions{Name: lay.name, Version: lay.version, BlockRecords: lay.blockRecords})
		if err != nil {
			t.Fatal(err)
		}
		if v := max(meta.Version, 1); v != lay.version { // an absent version is v1
			t.Fatalf("%s: metadata version %d, want %d", lay.name, v, lay.version)
		}
		if st, err := sch.Compact(dir, storage.CompactOptions{GCGrace: -1}); err != nil ||
			st.PartitionsCompacted != meta.NumPartitions() {
			t.Fatalf("%s: migration = (%+v, %v), want every partition rewritten", lay.name, st, err)
		}
		if n, err := sch.BuildSummaries(dir, summary.Config{}); err != nil || n != meta.NumPartitions() {
			t.Fatalf("%s: BuildSummaries = (%d, %v), want %d", lay.name, n, err, meta.NumPartitions())
		}
		meta, err = storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		wrng := rand.New(rand.NewSource(int64(len(lay.name)) * 131))
		for wi, f := range fracs {
			w := approxWindow(wrng, f)
			for _, agg := range aggs {
				q := wrng.Float64()
				res, _, err := sch.ApproxQuery(ctx, dir, meta, w, stdata.ApproxRequest{
					Agg: agg, Q: q, Res: 3, ScanBoundary: lay.scanBoundary,
				})
				if err != nil {
					t.Fatalf("%s w%d %s: %v", lay.name, wi, agg, err)
				}
				if res.Fallback {
					t.Fatalf("%s w%d %s: unexpected exact fallback with sidecars present", lay.name, wi, agg)
				}
				checkContainment(t, lay.name+"/"+agg, res, recs, w, q)
			}
		}
	}
}
