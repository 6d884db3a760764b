package summary

import (
	"errors"
	"fmt"
	"math"

	"st4ml/internal/index"
)

// Supported approximate aggregates.
const (
	AggCount    = "count"    // records intersecting the window
	AggHist     = "hist"     // per-cell counts over a Res³ grid on the window
	AggQuantile = "quantile" // q-quantile of the schema's value attribute
)

// Spec describes one approximate query: the selection window plus the
// aggregate to answer.
type Spec struct {
	Window index.Box
	Agg    string
	Q      float64 // quantile in [0,1] (AggQuantile)
	Res    int     // histogram cells per axis (AggHist); 0 means 4, cap 8
}

const (
	defaultHistRes = 4
	maxHistRes     = 8
)

func (s Spec) normalize() Spec {
	if s.Agg == "" {
		s.Agg = AggCount
	}
	if s.Res <= 0 {
		s.Res = defaultHistRes
	}
	if s.Res > maxHistRes {
		s.Res = maxHistRes
	}
	if s.Q < 0 {
		s.Q = 0
	}
	if s.Q > 1 {
		s.Q = 1
	}
	return s
}

// ErrSpec wraps every Validate failure: the request, not the data, is at
// fault, so the serving tiers answer it 400.
var ErrSpec = errors.New("summary: invalid spec")

// Validate rejects malformed specs before any work happens.
func (s Spec) Validate(hasValue bool) error {
	switch s.Agg {
	case "", AggCount, AggHist:
	case AggQuantile:
		if !hasValue {
			return fmt.Errorf("%w: schema has no value attribute for %q", ErrSpec, AggQuantile)
		}
		if math.IsNaN(s.Q) || s.Q < 0 || s.Q > 1 {
			return fmt.Errorf("%w: quantile q=%v outside [0,1]", ErrSpec, s.Q)
		}
	default:
		return fmt.Errorf("%w: unknown aggregate %q (want %s|%s|%s)", ErrSpec, s.Agg, AggCount, AggHist, AggQuantile)
	}
	return nil
}

// Cell is one histogram bucket of an AggHist answer: its box, the count
// envelope, and the clamped estimate.
type Cell struct {
	Box      index.Box `json:"box"`
	Lo       int64     `json:"lo"`
	Hi       int64     `json:"hi"`
	Estimate float64   `json:"estimate"`
	Bound    float64   `json:"bound"`
}

// Source labels for PartProvenance.
const (
	SourceSummary = "summary" // answered entirely from the sidecar
	SourceMixed   = "mixed"   // sidecar plus exact scans (boundary blocks / deltas)
	SourceScan    = "scan"    // no usable sidecar: transparent exact fallback
)

// PartProvenance records how one partition was answered — the
// estimated-vs-exact provenance surfaced in the explain tree.
type PartProvenance struct {
	ID             int    `json:"id"`
	Source         string `json:"source"`
	SummaryBlocks  int64  `json:"summary_blocks"`
	ScannedBlocks  int64  `json:"scanned_blocks"`
	ScannedRecords int64  `json:"scanned_records"`
}

// Result is the answer envelope of an approximate query: the exact answer
// is guaranteed to lie in [Estimate-Bound, Estimate+Bound] (per cell for
// AggHist), with provenance for the explain tree.
type Result struct {
	Agg      string  `json:"agg"`
	Estimate float64 `json:"estimate"`
	Bound    float64 `json:"bound"`
	// CountLo/CountHi envelope the selected-record count for every
	// aggregate (for AggQuantile they qualify an empty selection).
	CountLo int64  `json:"count_lo"`
	CountHi int64  `json:"count_hi"`
	Cells   []Cell `json:"cells,omitempty"`
	// Distinct is the informational KMV distinct-ID estimate (probabilistic,
	// no hard bound; DistinctExact marks it provably exact).
	Distinct      float64 `json:"distinct,omitempty"`
	DistinctExact bool    `json:"distinct_exact,omitempty"`
	// Exact reports a zero-width envelope (every block was either scanned
	// or fully inside the window).
	Exact bool `json:"exact"`
	// Fallback reports that at least one partition had no usable sidecar
	// and was answered by a transparent exact scan.
	Fallback bool `json:"fallback,omitempty"`

	Parts          []PartProvenance `json:"parts,omitempty"`
	SummaryBlocks  int64            `json:"summary_blocks"`
	ScannedBlocks  int64            `json:"scanned_blocks"`
	ScannedRecords int64            `json:"scanned_records"`
	BytesRead      int64            `json:"bytes_read"`
}

// Partial is the mergeable wire form a cluster shard returns: raw
// envelopes and sketches, finalized only at the router after all shards
// merged (mergeable-sketch semantics: merge-then-finalize must equal a
// single-node run, which the router tests pin).
type Partial struct {
	CountLo  int64   `json:"count_lo"`
	CountHi  int64   `json:"count_hi"`
	CountEst float64 `json:"count_est"`

	CellLo  []int64   `json:"cell_lo,omitempty"`
	CellHi  []int64   `json:"cell_hi,omitempty"`
	CellEst []float64 `json:"cell_est,omitempty"`

	Certain   *TDigest `json:"certain,omitempty"`
	Uncertain *TDigest `json:"uncertain,omitempty"`

	Distinct      *KMV `json:"distinct,omitempty"`
	DistinctExact bool `json:"distinct_exact"`

	Fallback       bool             `json:"fallback,omitempty"`
	Parts          []PartProvenance `json:"parts,omitempty"`
	SummaryBlocks  int64            `json:"summary_blocks"`
	ScannedBlocks  int64            `json:"scanned_blocks"`
	ScannedRecords int64            `json:"scanned_records"`
	BytesRead      int64            `json:"bytes_read"`
}

// Accumulator folds block summaries and exactly-scanned records into one
// envelope. The caller walks partitions with BeginPartition/EndPartition;
// within a partition it classifies each block (certain: fully inside the
// window; uncertain: straddling the boundary, answered from its grid;
// scanned: records delivered individually via Record). Records outside any
// partition scope (deltas, fallback scans) also arrive via Record.
type Accumulator struct {
	spec  Spec
	w     index.Box
	cells []index.Box // AggHist target cells, row-major like Grid

	countLo, countHi int64
	countEst         float64
	cellLo, cellHi   []int64
	cellEst          []float64

	certain, uncertain *TDigest
	distinct           *KMV
	distinctExact      bool

	fallback       bool
	parts          []PartProvenance
	summaryBlocks  int64
	scannedBlocks  int64
	scannedRecords int64
	bytesRead      int64

	// per-partition scope (between BeginPartition and EndPartition)
	inPart                      bool
	partLo, partHi              int64
	partEst                     float64
	prov                        PartProvenance
	partScanned, partSummarized bool
}

// NewAccumulator builds an accumulator for spec (normalized in place).
func NewAccumulator(spec Spec) *Accumulator {
	spec = spec.normalize()
	a := &Accumulator{
		spec:          spec,
		w:             spec.Window,
		certain:       NewTDigest(128),
		uncertain:     NewTDigest(128),
		distinct:      NewKMV(256),
		distinctExact: true,
	}
	if spec.Agg == AggHist {
		a.cells = windowCells(spec.Window, spec.Res)
		n := len(a.cells)
		a.cellLo = make([]int64, n)
		a.cellHi = make([]int64, n)
		a.cellEst = make([]float64, n)
	}
	return a
}

// Spec returns the normalized spec the accumulator answers.
func (a *Accumulator) Spec() Spec { return a.spec }

// windowCells tiles w into res³ closed cells, row-major x-fastest.
func windowCells(w index.Box, res int) []index.Box {
	cells := make([]index.Box, 0, res*res*res)
	edge := func(d, i int) float64 {
		if i >= res {
			return w.Max[d]
		}
		return w.Min[d] + float64(i)*(w.Max[d]-w.Min[d])/float64(res)
	}
	for t := 0; t < res; t++ {
		for y := 0; y < res; y++ {
			for x := 0; x < res; x++ {
				var b index.Box
				c := [3]int{x, y, t}
				for d := 0; d < index.Dims; d++ {
					b.Min[d] = edge(d, c[d])
					b.Max[d] = edge(d, c[d]+1)
					if b.Max[d] < b.Min[d] {
						b.Max[d] = b.Min[d]
					}
				}
				cells = append(cells, b)
			}
		}
	}
	return cells
}

// BeginPartition opens a per-partition scope.
func (a *Accumulator) BeginPartition(id int) {
	a.inPart = true
	a.partLo, a.partHi, a.partEst = 0, 0, 0
	a.prov = PartProvenance{ID: id}
	a.partScanned, a.partSummarized = false, false
}

// EndPartition closes the scope: when ps is non-nil and the partition
// straddles the window, the partition-level multi-resolution grids clamp
// the block-sum envelope (coarser grids overflow less, so they can be
// tighter on wide windows). scanOK marks the scope's Record calls as
// covering everything the summaries did not (false forces Fallback).
func (a *Accumulator) EndPartition(ps *PartitionSummary) {
	if ps != nil && a.partSummarized && !a.w.Contains(ps.Bounds) && len(ps.Blocks) > 0 {
		allCovered := a.prov.ScannedRecords == 0 // clamp only when every record came from summaries
		if allCovered {
			for _, g := range ps.Grids {
				glo, ghi, _ := g.CountRange(a.w)
				if glo > a.partLo {
					a.partLo = glo
				}
				if ghi < a.partHi {
					a.partHi = ghi
				}
			}
			if a.partHi < a.partLo {
				a.partHi = a.partLo
			}
			if a.partEst < float64(a.partLo) {
				a.partEst = float64(a.partLo)
			}
			if a.partEst > float64(a.partHi) {
				a.partEst = float64(a.partHi)
			}
		}
	}
	a.countLo += a.partLo
	a.countHi += a.partHi
	a.countEst += a.partEst
	switch {
	case a.partScanned && a.partSummarized:
		a.prov.Source = SourceMixed
	case a.partScanned:
		a.prov.Source = SourceScan
	default:
		a.prov.Source = SourceSummary
	}
	a.summaryBlocks += a.prov.SummaryBlocks
	a.scannedBlocks += a.prov.ScannedBlocks
	a.scannedRecords += a.prov.ScannedRecords
	a.parts = append(a.parts, a.prov)
	a.inPart = false
}

// LastPart returns the provenance of the most recently closed partition
// scope — what the orchestration attaches to its per-partition trace span.
func (a *Accumulator) LastPart() (PartProvenance, bool) {
	if a.inPart || len(a.parts) == 0 {
		return PartProvenance{}, false
	}
	return a.parts[len(a.parts)-1], true
}

// Fallback marks the current partition (or the whole query) as answered by
// an exact scan because no usable sidecar exists.
func (a *Accumulator) Fallback() { a.fallback = true }

// AddBytesRead accounts sidecar/scan bytes for the bench comparison.
func (a *Accumulator) AddBytesRead(n int64) { a.bytesRead += n }

// BlockCertain folds a block whose bounds lie fully inside the window:
// every record intersects, so the count is exact and its digest is certain.
func (a *Accumulator) BlockCertain(bs *BlockSummary) {
	a.addCount(bs.Count, bs.Count, float64(bs.Count))
	a.certain.Merge(bs.Digest)
	a.distinct.Merge(bs.Distinct)
	a.addHistBlock(bs)
	a.prov.SummaryBlocks++
	a.partSummarized = true
}

// BlockUncertain folds a straddling block from its grid envelope; its
// digest is uncertain (each value may or may not be selected).
func (a *Accumulator) BlockUncertain(bs *BlockSummary) {
	lo, hi, est := bs.Grid.CountRange(a.w)
	if hi > bs.Count {
		hi = bs.Count
	}
	if lo > hi {
		lo = hi
	}
	a.addCount(lo, hi, est)
	a.uncertain.Merge(bs.Digest)
	a.distinct.Merge(bs.Distinct)
	if lo != hi {
		a.distinctExact = false
	}
	a.addHistBlock(bs)
	a.prov.SummaryBlocks++
	a.partSummarized = true
}

// BlockScanned notes a block the caller scans exactly (its records arrive
// via Record).
func (a *Accumulator) BlockScanned(n int) {
	a.prov.ScannedBlocks += int64(n)
	if n > 0 {
		a.partScanned = true
	}
}

// Record folds one exactly-scanned record already known to intersect the
// window: counts are exact and its value lands in the certain digest.
func (a *Accumulator) Record(b index.Box, v float64, hasVal bool, id int64) {
	a.addCount(1, 1, 1)
	if hasVal {
		a.certain.Add(v)
	}
	a.distinct.Add(id)
	for i, c := range a.cells {
		if c.Intersects(b) {
			a.cellLo[i]++
			a.cellHi[i]++
			a.cellEst[i]++
		}
	}
	if a.inPart {
		a.prov.ScannedRecords++
		a.partScanned = true
	} else {
		a.scannedRecords++
	}
}

func (a *Accumulator) addCount(lo, hi int64, est float64) {
	if a.inPart {
		a.partLo += lo
		a.partHi += hi
		a.partEst += est
		return
	}
	a.countLo += lo
	a.countHi += hi
	a.countEst += est
}

// addHistBlock folds a block's grid into the AggHist target cells. Each
// target cell's count uses the same intersects predicate as the global
// count, so the per-cell grid envelope applies verbatim — contained blocks
// included (a block inside the window still spreads uncertainty across
// cells finer than the block).
func (a *Accumulator) addHistBlock(bs *BlockSummary) {
	if len(a.cells) == 0 {
		return
	}
	for i, c := range a.cells {
		if !c.Intersects(bs.Bounds) {
			continue
		}
		lo, hi, est := bs.Grid.CountRange(c)
		if hi > bs.Count {
			hi = bs.Count
		}
		if lo > hi {
			lo = hi
		}
		a.cellLo[i] += lo
		a.cellHi[i] += hi
		a.cellEst[i] += est
	}
}

// Partial snapshots the accumulator in mergeable wire form.
func (a *Accumulator) Partial() *Partial {
	if a.inPart {
		panic("summary: Partial inside an open partition scope")
	}
	return &Partial{
		CountLo: a.countLo, CountHi: a.countHi, CountEst: a.countEst,
		CellLo: a.cellLo, CellHi: a.cellHi, CellEst: a.cellEst,
		Certain: a.certain, Uncertain: a.uncertain,
		Distinct: a.distinct, DistinctExact: a.distinctExact,
		Fallback: a.fallback, Parts: a.parts,
		SummaryBlocks: a.summaryBlocks, ScannedBlocks: a.scannedBlocks,
		ScannedRecords: a.scannedRecords, BytesRead: a.bytesRead,
	}
}

// MergePartial folds a shard's partial into the accumulator. Envelopes
// add, digests and sketches merge, provenance concatenates.
func (a *Accumulator) MergePartial(p *Partial) error {
	if p == nil {
		return nil
	}
	if a.spec.Agg == AggHist &&
		(len(p.CellLo) != len(a.cellLo) || len(p.CellHi) != len(a.cellHi) || len(p.CellEst) != len(a.cellEst)) {
		return fmt.Errorf("summary: partial cell grid mismatch (%d vs %d cells)", len(p.CellLo), len(a.cellLo))
	}
	a.countLo += p.CountLo
	a.countHi += p.CountHi
	a.countEst += p.CountEst
	for i := range p.CellLo {
		a.cellLo[i] += p.CellLo[i]
		a.cellHi[i] += p.CellHi[i]
		a.cellEst[i] += p.CellEst[i]
	}
	a.certain.Merge(p.Certain)
	a.uncertain.Merge(p.Uncertain)
	a.distinct.Merge(p.Distinct)
	a.distinctExact = a.distinctExact && p.DistinctExact
	a.fallback = a.fallback || p.Fallback
	a.parts = append(a.parts, p.Parts...)
	a.summaryBlocks += p.SummaryBlocks
	a.scannedBlocks += p.ScannedBlocks
	a.scannedRecords += p.ScannedRecords
	a.bytesRead += p.BytesRead
	return nil
}

// Finalize closes the envelope into the client-facing Result.
func (a *Accumulator) Finalize() *Result {
	if a.inPart {
		panic("summary: Finalize inside an open partition scope")
	}
	r := &Result{
		Agg:     a.spec.Agg,
		CountLo: a.countLo, CountHi: a.countHi,
		Fallback: a.fallback, Parts: a.parts,
		SummaryBlocks: a.summaryBlocks, ScannedBlocks: a.scannedBlocks,
		ScannedRecords: a.scannedRecords, BytesRead: a.bytesRead,
	}
	est := clamp(a.countEst, float64(a.countLo), float64(a.countHi))
	exact := a.countLo == a.countHi
	switch a.spec.Agg {
	case AggHist:
		r.Estimate = est
		r.Bound = envelope(est, a.countLo, a.countHi)
		for i, c := range a.cells {
			ce := clamp(a.cellEst[i], float64(a.cellLo[i]), float64(a.cellHi[i]))
			r.Cells = append(r.Cells, Cell{
				Box: c, Lo: a.cellLo[i], Hi: a.cellHi[i],
				Estimate: ce, Bound: envelope(ce, a.cellLo[i], a.cellHi[i]),
			})
			exact = exact && a.cellLo[i] == a.cellHi[i]
		}
	case AggQuantile:
		lo, hi, ok := QuantileBounds(a.spec.Q, []*TDigest{a.certain}, []*TDigest{a.uncertain})
		if ok {
			merged := a.certain.Clone()
			merged.Merge(a.uncertain)
			qe := clamp(merged.Quantile(a.spec.Q), lo, hi)
			r.Estimate = qe
			r.Bound = math.Max(qe-lo, hi-qe)
			exact = exact && lo == hi
		}
	default: // AggCount
		r.Estimate = est
		r.Bound = envelope(est, a.countLo, a.countHi)
	}
	r.Distinct, _ = a.distinct.Estimate()
	_, kexact := a.distinct.Estimate()
	r.DistinctExact = kexact && a.distinctExact
	r.Exact = exact
	return r
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// envelope returns the one-sided bound max(est-lo, hi-est).
func envelope(est float64, lo, hi int64) float64 {
	return math.Max(est-float64(lo), float64(hi)-est)
}
