package stdata

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/tempo"
	"st4ml/internal/trace"
)

// approxEvents builds a seeded clustered corpus over [0,100)² × [0,1000):
// a handful of gaussian hot spots plus a uniform background, so windows at
// any selectivity see realistically skewed densities.
func approxEvents(rng *rand.Rand, n int) []EventRec {
	type spot struct{ x, y, t, sx, st float64 }
	spots := make([]spot, 5)
	for i := range spots {
		spots[i] = spot{
			x: rng.Float64() * 100, y: rng.Float64() * 100, t: rng.Float64() * 1000,
			sx: 2 + rng.Float64()*6, st: 20 + rng.Float64()*80,
		}
	}
	clip := func(v, lo, hi float64) float64 { return math.Min(hi, math.Max(lo, v)) }
	out := make([]EventRec, n)
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
		out[i] = EventRec{ID: int64(i % 37), Loc: geom.Pt(x, y), Time: int64(tm), Aux: "e"}
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

// exactQuantile computes the rank-ceil(q·n) order statistic brute-force
// (same definition the summary package's wall pins).
func exactQuantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// checkProvenance asserts the acceptance invariant: per-partition
// provenance sums exactly to the result's totals.
func checkProvenance(t *testing.T, res *summary.Result) {
	t.Helper()
	var sb, scb, scr int64
	for _, p := range res.Parts {
		sb += p.SummaryBlocks
		scb += p.ScannedBlocks
		scr += p.ScannedRecords
	}
	if sb != res.SummaryBlocks || scb != res.ScannedBlocks || scr != res.ScannedRecords {
		t.Fatalf("provenance drift: parts sum to (%d,%d,%d), totals (%d,%d,%d)",
			sb, scb, scr, res.SummaryBlocks, res.ScannedBlocks, res.ScannedRecords)
	}
}

// checkContainment asserts the containment guarantee for one finalized
// result against the brute-forced exact answers.
func checkContainment(t *testing.T, tag string, res *summary.Result, recs []EventRec, w selection.Window, q float64) {
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
		ex := exactQuantile(vals, q)
		if ex < res.Estimate-res.Bound-eps || ex > res.Estimate+res.Bound+eps {
			t.Fatalf("%s: exact quantile %v outside %v±%v", tag, ex, res.Estimate, res.Bound)
		}
	}
	if res.Exact && res.Bound != 0 {
		t.Fatalf("%s: Exact with non-zero bound %v", tag, res.Bound)
	}
	checkProvenance(t, res)
}

// TestApproxMetamorphicWall is the statistical test wall: planner layout ×
// block size × boundary mode × window selectivity × aggregate, every
// combination through the full on-disk ApproxQuery path, asserting
// exact ∈ [estimate−bound, estimate+bound] and that per-partition
// provenance sums to the result totals. Half the layouts are ingested
// whole and backfilled; the other half take the corpus's last 100 records
// as an append, so a compaction pass rewrites the partitions they reach
// and rebuilds those sidecars over the rewrites (4096-record blocks —
// one per partition here — 16, and 64 with boundary scans). 6 layouts ×
// 6 windows × 3 aggregates = 108 seeded combinations.
func TestApproxMetamorphicWall(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := Lookup("nyc")
	rng := rand.New(rand.NewSource(412))
	recs := approxEvents(rng, 700)

	layouts := []struct {
		name         string
		blockRecords int
		gt, gs       int
		scanBoundary bool
		compacted    bool
	}{
		{"v3-b16", 16, 3, 3, false, false},
		{"v3-b64", 64, 2, 2, false, false},
		{"v3-b32-scan", 32, 4, 4, true, false},
		{"compacted-b4096", 4096, 2, 2, false, true},
		{"compacted-b16", 16, 2, 2, false, true},
		{"compacted-b64-scan", 64, 3, 3, true, true},
	}
	fracs := []float64{0.05, 0.1, 0.2, 0.5, 0.8, 1.0}
	aggs := []string{summary.AggCount, summary.AggHist, summary.AggQuantile}

	combos := 0
	for _, lay := range layouts {
		dir := t.TempDir()
		base := recs
		if lay.compacted {
			base = recs[:600]
		}
		meta, err := sch.Ingest(ctx, base, dir, sch.DefaultPlanner(lay.gt, lay.gs),
			selection.IngestOptions{
				Name: lay.name, SampleFrac: 0.5, Seed: 1,
				BlockRecords: lay.blockRecords,
			})
		if err != nil {
			t.Fatal(err)
		}
		if n, err := sch.BuildSummaries(dir, summary.Config{}); err != nil || n != meta.NumPartitions() {
			t.Fatalf("%s: BuildSummaries = (%d, %v), want %d", lay.name, n, err, meta.NumPartitions())
		}
		if lay.compacted {
			if _, err := sch.Append(recs[600:], dir, ""); err != nil {
				t.Fatal(err)
			}
			st, err := sch.Compact(dir, storage.CompactOptions{MinDeltas: 1, GCGrace: -1})
			if err != nil || st.PartitionsCompacted == 0 || st.RecordsRewritten < 100 {
				t.Fatalf("%s: Compact = (%+v, %v), want the appended records rewritten", lay.name, st, err)
			}
		}
		meta, err = storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if meta.DeltaCount() != 0 || summaryCount(meta) != meta.NumPartitions() {
			t.Fatalf("%s: %d deltas and %d sidecars for %d partitions", lay.name,
				meta.DeltaCount(), summaryCount(meta), meta.NumPartitions())
		}
		wrng := rand.New(rand.NewSource(int64(len(lay.name)) * 131))
		for wi, f := range fracs {
			w := approxWindow(wrng, f)
			for _, agg := range aggs {
				combos++
				q := wrng.Float64()
				res, _, err := sch.ApproxQuery(ctx, dir, meta, w, ApproxRequest{
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
	if combos != 108 {
		t.Fatalf("%d combinations, want 108", combos)
	}
}

// TestApproxFallbackWithoutSummaries: a dataset with no sidecars answers
// approx queries through the transparent exact-scan fallback — flagged,
// zero-width, and still provenance-consistent.
func TestApproxFallbackWithoutSummaries(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := Lookup("nyc")
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	recs := approxEvents(rng, 300)
	meta, err := sch.Ingest(ctx, recs, dir, sch.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: "nosum", SampleFrac: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := approxWindow(rng, 0.4)
	res, _, err := sch.ApproxQuery(ctx, dir, meta, w, ApproxRequest{Agg: summary.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback || !res.Exact || res.Bound != 0 {
		t.Fatalf("fallback result: fallback=%v exact=%v bound=%v", res.Fallback, res.Exact, res.Bound)
	}
	for _, p := range res.Parts {
		if p.Source != summary.SourceScan {
			t.Fatalf("partition %d source %q, want %q", p.ID, p.Source, summary.SourceScan)
		}
	}
	checkContainment(t, "fallback", res, recs, w, 0)
}

// TestApproxCorruptSidecarFailsLoudly: a flipped byte in the sidecar fails
// the approx query — never a silent mis-estimate, never a silent fallback.
func TestApproxCorruptSidecarFailsLoudly(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := Lookup("nyc")
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	recs := approxEvents(rng, 200)
	meta, err := sch.Ingest(ctx, recs, dir, sch.DefaultPlanner(1, 2),
		selection.IngestOptions{Name: "corrupt", SampleFrac: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.BuildSummaries(dir, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	meta, _ = storage.ReadMetadata(dir)
	sm, ok := meta.SummaryFor(0)
	if !ok {
		t.Fatal("no sidecar for partition 0")
	}
	path := filepath.Join(dir, sm.File)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x20
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	w := selection.Window{Space: geom.Box(0, 0, 100, 100), Time: tempo.New(0, 1000)}
	if _, _, err := sch.ApproxQuery(ctx, dir, meta, w, ApproxRequest{}); err == nil {
		t.Fatal("corrupt sidecar answered silently")
	}
}

// TestApproxWithDeltas: records appended after summarization are folded in
// exactly (the base sidecar still serves the base), and compaction with a
// summarizer restores pure-summary answers covering everything.
func TestApproxWithDeltas(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := Lookup("nyc")
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	base := approxEvents(rng, 400)
	meta, err := sch.Ingest(ctx, base, dir, sch.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: "delta", SampleFrac: 0.5, Seed: 1, BlockRecords: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.BuildSummaries(dir, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	extra := approxEvents(rand.New(rand.NewSource(77)), 120)
	if _, err := sch.Append(extra, dir, "b1"); err != nil {
		t.Fatal(err)
	}
	meta, err = storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]EventRec(nil), base...), extra...)
	w := selection.Window{Space: geom.Box(0, 0, 100, 100), Time: tempo.New(0, 1000)}
	res, _, err := sch.ApproxQuery(ctx, dir, meta, w, ApproxRequest{Agg: summary.AggQuantile, Q: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Fatal("deltas must not force a fallback")
	}
	if res.ScannedRecords == 0 {
		t.Fatal("delta records should be scanned exactly")
	}
	if res.CountLo != int64(len(all)) || res.CountHi != int64(len(all)) {
		t.Fatalf("full-domain count [%d,%d], want exactly %d", res.CountLo, res.CountHi, len(all))
	}
	checkContainment(t, "deltas", res, all, w, 0.5)

	// Summarizing compaction folds the deltas into fresh base+sidecar
	// pairs; the same query now needs no exact record scans at all.
	if _, err := sch.Compact(dir, storage.CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, err = storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = sch.ApproxQuery(ctx, dir, meta, w, ApproxRequest{Agg: summary.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScannedRecords != 0 || res.Fallback {
		t.Fatalf("post-compaction query scanned %d records (fallback=%v), want summaries only",
			res.ScannedRecords, res.Fallback)
	}
	checkContainment(t, "post-compact", res, all, w, 0)
}

// TestSchemaCompactKeepsSidecars pins the production compaction path —
// Schema.Compact with no summarizer in its options, as stingest calls it —
// against dropping the approximate tier: a partition that had a live
// sidecar gets a fresh one for its rewrite, so the sidecar count is
// unchanged and approximate answers never fall back to exact scans, while
// a store that never had sidecars gains none (no new compaction work).
func TestSchemaCompactKeepsSidecars(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := Lookup("nyc")
	w := selection.Window{Space: geom.Box(0, 0, 100, 100), Time: tempo.New(0, 1000)}
	for _, summarized := range []bool{true, false} {
		dir := t.TempDir()
		base := approxEvents(rand.New(rand.NewSource(5)), 300)
		if _, err := sch.Ingest(ctx, base, dir, sch.DefaultPlanner(2, 2),
			selection.IngestOptions{Name: "keep", SampleFrac: 0.5, Seed: 1, BlockRecords: 32}); err != nil {
			t.Fatal(err)
		}
		if summarized {
			if _, err := sch.BuildSummaries(dir, summary.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		extra := approxEvents(rand.New(rand.NewSource(55)), 90)
		if _, err := sch.Append(extra, dir, "b1"); err != nil {
			t.Fatal(err)
		}
		before, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sch.Compact(dir, storage.CompactOptions{MinDeltas: 1, GCGrace: -1})
		if err != nil {
			t.Fatal(err)
		}
		if st.PartitionsCompacted == 0 {
			t.Fatalf("summarized=%v: nothing compacted", summarized)
		}
		meta, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if summaryCount(meta) != summaryCount(before) {
			t.Fatalf("summarized=%v: %d live sidecars after compaction, %d before",
				summarized, summaryCount(meta), summaryCount(before))
		}
		if !summarized {
			continue
		}
		res, _, err := sch.ApproxQuery(ctx, dir, meta, w, ApproxRequest{Agg: summary.AggCount})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fallback || res.ScannedRecords != 0 {
			t.Fatalf("post-compaction approx fell back (fallback=%v, scanned %d records)",
				res.Fallback, res.ScannedRecords)
		}
		checkContainment(t, "kept", res, append(base, extra...), w, 0)
	}
}

// TestApproxPartialMergeMatchesFlat pins mergeable-sketch semantics: the
// partials of disjoint partition subsets, merged at a coordinator and
// finalized, must answer identically to the flat single-pass run — what
// the cluster router relies on.
func TestApproxPartialMergeMatchesFlat(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := Lookup("nyc")
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(8))
	recs := approxEvents(rng, 500)
	meta, err := sch.Ingest(ctx, recs, dir, sch.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: "merge", SampleFrac: 0.5, Seed: 1, BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.BuildSummaries(dir, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	meta, _ = storage.ReadMetadata(dir)
	for _, agg := range []string{summary.AggCount, summary.AggHist, summary.AggQuantile} {
		w := approxWindow(rng, 0.5)
		req := ApproxRequest{Agg: agg, Q: 0.5, Res: 2}
		flat, _, err := sch.ApproxQuery(ctx, dir, meta, w, req)
		if err != nil {
			t.Fatal(err)
		}
		ids := meta.Prune(w.Space, w.Time)
		if len(ids) < 2 {
			t.Fatalf("%s: window hit %d partitions, need ≥2 for a split", agg, len(ids))
		}
		acc := summary.NewAccumulator(summary.Spec{Window: w.Box(), Agg: agg, Q: 0.5, Res: 2})
		for _, half := range [][]int{ids[:len(ids)/2], ids[len(ids)/2:]} {
			sub := req
			sub.Partitions = half
			sub.Partial = true
			_, p, err := sch.ApproxQuery(ctx, dir, meta, w, sub)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.MergePartial(p); err != nil {
				t.Fatal(err)
			}
		}
		merged := acc.Finalize()
		if merged.CountLo != flat.CountLo || merged.CountHi != flat.CountHi {
			t.Fatalf("%s: merged envelope [%d,%d], flat [%d,%d]",
				agg, merged.CountLo, merged.CountHi, flat.CountLo, flat.CountHi)
		}
		if math.Abs(merged.Estimate-flat.Estimate) > 1e-6*(1+math.Abs(flat.Estimate)) {
			t.Fatalf("%s: merged estimate %v, flat %v", agg, merged.Estimate, flat.Estimate)
		}
		if merged.SummaryBlocks != flat.SummaryBlocks || len(merged.Parts) != len(flat.Parts) {
			t.Fatalf("%s: merged provenance (%d blocks, %d parts), flat (%d, %d)",
				agg, merged.SummaryBlocks, len(merged.Parts), flat.SummaryBlocks, len(flat.Parts))
		}
		checkContainment(t, "merged/"+agg, merged, recs, w, 0.5)
	}
}

// TestApproxMetricsAndExplain: one approx query lands its totals in the
// engine metrics and its provenance tree in the explain output, the two
// agreeing with the result envelope.
func TestApproxMetricsAndExplain(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := Lookup("nyc")
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(9))
	recs := approxEvents(rng, 300)
	meta, err := sch.Ingest(ctx, recs, dir, sch.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: "explain", SampleFrac: 0.5, Seed: 1, BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.BuildSummaries(dir, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	meta, _ = storage.ReadMetadata(dir)
	ctx.Metrics.Reset()
	tr := trace.New()
	tctx := ctx.WithTracer(tr, 0)
	w := approxWindow(rng, 0.3)
	res, _, err := sch.ApproxQuery(tctx, dir, meta, w, ApproxRequest{Agg: summary.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	snap := ctx.Metrics.Snapshot()
	if snap.ApproxQueries != 1 ||
		snap.ApproxSummaryBlocks != res.SummaryBlocks ||
		snap.ApproxScannedBlocks != res.ScannedBlocks ||
		snap.ApproxScannedRecords != res.ScannedRecords {
		t.Fatalf("metrics %+v disagree with result (%d,%d,%d)",
			snap, res.SummaryBlocks, res.ScannedBlocks, res.ScannedRecords)
	}
	ex := trace.Build(tr.Snapshot())
	if ex == nil || ex.Approx == nil {
		t.Fatal("no approx section in explain")
	}
	if ex.Approx.Agg != summary.AggCount ||
		ex.Approx.SummaryBlocks != res.SummaryBlocks ||
		ex.Approx.ScannedBlocks != res.ScannedBlocks ||
		ex.Approx.ScannedRecords != res.ScannedRecords ||
		ex.Approx.Fallback != res.Fallback {
		t.Fatalf("explain %+v disagrees with result", ex.Approx)
	}
	if len(ex.Approx.Parts) != len(res.Parts) {
		t.Fatalf("explain has %d parts, result %d", len(ex.Approx.Parts), len(res.Parts))
	}
	var sb, scb, scr int64
	for i, p := range ex.Approx.Parts {
		if p.ID != int64(res.Parts[i].ID) || p.Source != res.Parts[i].Source {
			t.Fatalf("explain part %d = %+v, result part %+v", i, p, res.Parts[i])
		}
		sb += p.SummaryBlocks
		scb += p.ScannedBlocks
		scr += p.ScannedRecords
	}
	if sb != ex.Approx.SummaryBlocks || scb != ex.Approx.ScannedBlocks || scr != ex.Approx.ScannedRecords {
		t.Fatalf("explain parts sum (%d,%d,%d) != totals (%d,%d,%d)",
			sb, scb, scr, ex.Approx.SummaryBlocks, ex.Approx.ScannedBlocks, ex.Approx.ScannedRecords)
	}
}

// summaryCount is how many of m's partitions carry a live summary sidecar.
func summaryCount(m *storage.Metadata) int {
	n := 0
	for i := range m.Partitions {
		if _, ok := m.SummaryFor(i); ok {
			n++
		}
	}
	return n
}
