package storage

import (
	"cmp"
	"slices"

	"st4ml/internal/geom"
	"st4ml/internal/index"
)

// ZCluster sorts recs in place along a 3-d Z-order curve over the records'
// own ST extent, so consecutive records — and therefore the block
// layout's record ranges — cover small, mostly disjoint ST boxes. This is
// what makes the per-block footer bounds selective: without it every block
// spans the whole extent and intra-partition pruning never fires (the
// row-group sort-key idiom of columnar stores, applied to the paper's §4.1
// layout). Both the full-rebuild ingest (selection.Ingest) and the delta
// layer (AppendDelta, Compact) cluster through this one function, which is
// why a compacted store is block-for-block equivalent to a rebuilt one.
func ZCluster[T any](recs []T, boxOf func(T) index.Box) {
	if len(recs) < 2 {
		return
	}
	bounds := index.EmptyBox()
	for _, rec := range recs {
		bounds = bounds.Union(boxOf(rec))
	}
	if bounds.IsEmpty() {
		return
	}
	space := bounds.Spatial()
	window := bounds.Temporal()
	// ~16 time bins per record run; spatial resolution 8 bits/dim.
	binSec := (window.End - window.Start) / 16
	if binSec < 1 {
		binSec = 1
	}
	curve := index.NewZCurve3D(space, window, 8, binSec)
	type keyed struct {
		key uint64
		idx int
	}
	order := make([]keyed, len(recs))
	for i, rec := range recs {
		c := boxOf(rec).Center()
		order[i] = keyed{key: curve.Key(geom.Pt(c[0], c[1]), int64(c[2])), idx: i}
	}
	// Indexes are unique, so ordering ties by index is the stable order.
	slices.SortFunc(order, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	sorted := make([]T, len(recs))
	for i, k := range order {
		sorted[i] = recs[k.idx]
	}
	copy(recs, sorted)
}
