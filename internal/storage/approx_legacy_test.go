// The legacy half of the approximate tier's statistical wall. A v1 or v2
// dataset migrated to v3 by a compaction pass of an earlier release must
// answer with the same containment guarantee as one ingested as v3,
// including boundary scans over the migrated blocks and sidecars rebuilt
// by a later compaction. It runs over the committed migrated goldens,
// which are the only such stores left: no code writes v1/v2 files.
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

// The golden records' domain: x ∈ [-74,-73), y ∈ [40.7,41.0), t ∈ [0,7200).
const (
	goldenX0, goldenXW = -74.0, 1.0
	goldenY0, goldenYW = 40.7, 0.3
	goldenTW           = 7200.0
)

// legacyWindow draws a seeded window whose edge length scales with f
// (fraction of the golden domain per axis), clipped to the domain.
func legacyWindow(rng *rand.Rand, f float64) selection.Window {
	ex, ey, et := goldenXW*f, goldenYW*f, goldenTW*f
	x := goldenX0 + rng.Float64()*(goldenXW-ex)
	y := goldenY0 + rng.Float64()*(goldenYW-ey)
	tm := rng.Float64() * (goldenTW - et)
	return selection.Window{
		Space: geom.Box(x, y, x+ex, y+ey),
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

// TestApproxLegacyMetamorphicWall runs the approximate wall over the
// migrated v1 and v2 goldens: migrated generation × boundary mode ×
// sidecar origin × window selectivity × aggregate, every combination
// through the full on-disk ApproxQuery path on a temp copy of the golden.
// The v1 and v2 layouts answer from the sidecars their migrating pass
// built (a v1 dataset's rewrites took DefaultBlockRecords, so one block
// per partition; a v2 dataset's its own 16). The third layout takes an
// append over the whole domain into the migrated v2 store, compacts it
// away (rebuilding the sidecars over the rewrites) and scans boundary
// blocks. 3 layouts × 6 windows × 3 aggregates = 54 seeded combinations.
func TestApproxLegacyMetamorphicWall(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")

	layouts := []struct {
		name         string
		src          string
		appended     bool
		scanBoundary bool
	}{
		{"v1-migrated", goldenV1MigratedDir, false, false},
		{"v2-migrated", goldenV2MigratedDir, false, false},
		{"v2-migrated-appended-scan", goldenV2MigratedDir, true, true},
	}
	fracs := []float64{0.05, 0.1, 0.2, 0.5, 0.8, 1.0}
	aggs := []string{summary.AggCount, summary.AggHist, summary.AggQuantile}

	combos := 0
	for _, lay := range layouts {
		dir := copyDataset(t, lay.src)
		var recs []stdata.EventRec
		for _, p := range goldenWant(t, lay.src) {
			recs = append(recs, p...)
		}
		if lay.appended {
			rng := rand.New(rand.NewSource(412))
			extra := make([]stdata.EventRec, 60)
			for i := range extra {
				extra[i] = stdata.EventRec{
					ID:   int64(20_000 + i%37),
					Loc:  geom.Pt(goldenX0+rng.Float64()*goldenXW, goldenY0+rng.Float64()*goldenYW),
					Time: rng.Int63n(int64(goldenTW)),
					Aux:  "e",
				}
			}
			if _, err := storage.AppendDelta(dir, stdata.EventRecC, extra, stdata.EventRec.Box,
				storage.AppendOptions{BatchID: "wall"}); err != nil {
				t.Fatalf("%s: AppendDelta: %v", lay.name, err)
			}
			st, err := sch.Compact(dir, storage.CompactOptions{MinDeltas: 1, GCGrace: -1})
			if err != nil || st.PartitionsCompacted == 0 || st.DeltasMerged == 0 {
				t.Fatalf("%s: Compact = (%+v, %v), want the append folded in", lay.name, st, err)
			}
			recs = append(recs, extra...)
		}
		meta, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := meta.CheckFormat(dir); err != nil {
			t.Fatalf("%s: %v", lay.name, err)
		}
		if meta.DeltaCount() != 0 {
			t.Fatalf("%s: %d deltas left", lay.name, meta.DeltaCount())
		}
		for i := range meta.Partitions {
			if _, ok := meta.SummaryFor(i); !ok {
				t.Fatalf("%s: partition %d has no sidecar", lay.name, i)
			}
		}
		wrng := rand.New(rand.NewSource(int64(len(lay.name)) * 131))
		for wi, f := range fracs {
			w := legacyWindow(wrng, f)
			for _, agg := range aggs {
				combos++
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
	if combos != 54 {
		t.Fatalf("%d combinations, want 54", combos)
	}
}
