package convert

import (
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/instance"
	"st4ml/internal/tempo"
)

// Singular→collective conversions. Each partition of singular instances is
// allocated against the broadcast structure and aggregated per cell with
// the user's agg function, producing one partial collective instance per
// partition (no shuffle — the design of §3.2.2). Driver-side merging lives
// in package extract (CollectAndMerge).

// allocateLocal buckets local record indices into structure cells: for each
// record, candidate cells come from cand and are refined by exact (nil
// means candidates are exact already).
func allocateLocal[T any](
	recs []T,
	boxOf func(T) index.Box,
	cand candidates,
	exact func(T, int) bool,
	nCells int,
) [][]int32 {
	cells := make([][]int32, nCells)
	for i, rec := range recs {
		b := boxOf(rec)
		cand(b, func(c int) {
			if exact == nil || exact(rec, c) {
				cells[c] = append(cells[c], int32(i))
			}
		})
	}
	return cells
}

// allocateTrajs buckets local trajectory indices into structure cells
// segment by segment, so a trajectory costs O(its segments) candidate
// probes instead of O(candidate cells × segments) exact tests. Each
// segment's own ST box (its endpoints' MBR × the union of their intervals)
// asks cand, and each candidate is refined by the exact segment-cell test
// plus, for rasters, the cell's slot against the segment's span (nil slots
// and empty slots leave time unconstrained). A one-point trajectory is
// tested as its point. A per-cell stamp of the last trajectory placed keeps
// a trajectory from entering a cell twice; trajectories are visited in
// order, so every cell's list stays ascending.
func allocateTrajs[V, D any](
	trs []instance.Trajectory[V, D],
	cells []geom.Geometry,
	slots []tempo.Duration,
	cand candidates,
) [][]int32 {
	buckets := make([][]int32, len(cells))
	last := make([]int32, len(cells)) // 1 + index of the last trajectory placed
	// The visitors are built once and read the current trajectory and
	// segment from these variables, so a probe allocates nothing.
	var (
		stamp int32
		a, b  geom.Point
		span  tempo.Duration
	)
	timeOK := func(c int) bool {
		return slots == nil || slots[c].IsEmpty() || slots[c].Intersects(span)
	}
	visitSegment := func(c int) {
		if last[c] != stamp && timeOK(c) && segmentIntersectsGeometry(a, b, cells[c]) {
			last[c] = stamp
			buckets[c] = append(buckets[c], stamp-1)
		}
	}
	visitPoint := func(c int) {
		if last[c] != stamp && timeOK(c) && geom.GeometriesIntersect(a, cells[c]) {
			last[c] = stamp
			buckets[c] = append(buckets[c], stamp-1)
		}
	}
	for i, tr := range trs {
		stamp = int32(i) + 1
		if len(tr.Entries) == 1 {
			a, span = tr.Entries[0].Spatial, tr.Entries[0].Temporal
			cand(index.Box3(a.MBR(), span), visitPoint)
			continue
		}
		for k := 1; k < len(tr.Entries); k++ {
			ea, eb := &tr.Entries[k-1], &tr.Entries[k]
			a, b = ea.Spatial, eb.Spatial
			span = ea.Temporal.Union(eb.Temporal)
			cand(index.Box3(geom.Box(a.X, a.Y, b.X, b.Y), span), visitSegment)
		}
	}
	return buckets
}

// geometries boxes the cells as geom.Geometry once per conversion, so the
// exact tests do not box a cell per candidate.
func geometries[S geom.Geometry](cells []S) []geom.Geometry {
	out := make([]geom.Geometry, len(cells))
	for i, c := range cells {
		out[i] = c
	}
	return out
}

// gather materializes the records of one cell.
func gather[T any](recs []T, idx []int32) []T {
	if len(idx) == 0 {
		return nil
	}
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = recs[j]
	}
	return out
}

// broadcastStructure charges the broadcast metric for shipping a structure
// of n cells to every executor.
func broadcastStructure(ctx *engine.Context, n int) {
	const approxCellBytes = 48
	engine.Broadcast(ctx, struct{}{}, int64(n)*approxCellBytes)
}

// EventToTimeSeries allocates events into time slots and aggregates each
// slot with agg (called for every slot, with nil for empty ones).
func EventToTimeSeries[S geom.Geometry, V, D, U any](
	r *engine.RDD[instance.Event[S, V, D]],
	tgt TSTarget,
	m Method,
	agg func([]instance.Event[S, V, D]) U,
) *engine.RDD[instance.TimeSeries[U, instance.Unit]] {
	cand := tsCandidates(r.Ctx(), tgt, m)
	broadcastStructure(r.Ctx(), len(tgt.Slots))
	slots := tgt.Slots
	exact := func(e instance.Event[S, V, D], c int) bool {
		return slots[c].Intersects(e.Entry.Temporal)
	}
	return engine.MapPartitions(r, func(_ int, in []instance.Event[S, V, D]) []instance.TimeSeries[U, instance.Unit] {
		cells := allocateLocal(in, instance.Event[S, V, D].Box, cand, exact, len(slots))
		values := make([]U, len(slots))
		for c := range values {
			values[c] = agg(gather(in, cells[c]))
		}
		return []instance.TimeSeries[U, instance.Unit]{
			instance.NewTimeSeries(slots, values, geom.EmptyMBR(), instance.Unit{}),
		}
	})
}

// TrajToTimeSeries allocates trajectories into every slot their duration
// overlaps and aggregates per slot.
func TrajToTimeSeries[V, D, U any](
	r *engine.RDD[instance.Trajectory[V, D]],
	tgt TSTarget,
	m Method,
	agg func([]instance.Trajectory[V, D]) U,
) *engine.RDD[instance.TimeSeries[U, instance.Unit]] {
	cand := tsCandidates(r.Ctx(), tgt, m)
	broadcastStructure(r.Ctx(), len(tgt.Slots))
	slots := tgt.Slots
	exact := func(tr instance.Trajectory[V, D], c int) bool {
		return slots[c].Intersects(tr.Duration())
	}
	return engine.MapPartitions(r, func(_ int, in []instance.Trajectory[V, D]) []instance.TimeSeries[U, instance.Unit] {
		cells := allocateLocal(in, instance.Trajectory[V, D].Box, cand, exact, len(slots))
		values := make([]U, len(slots))
		for c := range values {
			values[c] = agg(gather(in, cells[c]))
		}
		return []instance.TimeSeries[U, instance.Unit]{
			instance.NewTimeSeries(slots, values, geom.EmptyMBR(), instance.Unit{}),
		}
	})
}

// EventToSpatialMap allocates events into spatial cells and aggregates per
// cell.
func EventToSpatialMap[SC geom.Geometry, S geom.Geometry, V, D, U any](
	r *engine.RDD[instance.Event[S, V, D]],
	tgt SMTarget[SC],
	m Method,
	agg func([]instance.Event[S, V, D]) U,
) *engine.RDD[instance.SpatialMap[SC, U, instance.Unit]] {
	cand := smCandidates(r.Ctx(), tgt, m)
	broadcastStructure(r.Ctx(), len(tgt.Cells))
	cells := tgt.Cells
	exact := func(e instance.Event[S, V, D], c int) bool {
		return geom.GeometriesIntersect(e.Entry.Spatial, cells[c])
	}
	return engine.MapPartitions(r, func(_ int, in []instance.Event[S, V, D]) []instance.SpatialMap[SC, U, instance.Unit] {
		buckets := allocateLocal(in, instance.Event[S, V, D].Box, cand, exact, len(cells))
		values := make([]U, len(cells))
		for c := range values {
			values[c] = agg(gather(in, buckets[c]))
		}
		return []instance.SpatialMap[SC, U, instance.Unit]{
			instance.NewSpatialMap(cells, values, instance.Unit{}),
		}
	})
}

// TrajToSpatialMap allocates trajectories into every spatial cell a segment
// passes through and aggregates per cell.
func TrajToSpatialMap[SC geom.Geometry, V, D, U any](
	r *engine.RDD[instance.Trajectory[V, D]],
	tgt SMTarget[SC],
	m Method,
	agg func([]instance.Trajectory[V, D]) U,
) *engine.RDD[instance.SpatialMap[SC, U, instance.Unit]] {
	cand := smCandidates(r.Ctx(), tgt, m)
	broadcastStructure(r.Ctx(), len(tgt.Cells))
	cells, shapes := tgt.Cells, geometries(tgt.Cells)
	return engine.MapPartitions(r, func(_ int, in []instance.Trajectory[V, D]) []instance.SpatialMap[SC, U, instance.Unit] {
		buckets := allocateTrajs(in, shapes, nil, cand)
		values := make([]U, len(cells))
		for c := range values {
			values[c] = agg(gather(in, buckets[c]))
		}
		return []instance.SpatialMap[SC, U, instance.Unit]{
			instance.NewSpatialMap(cells, values, instance.Unit{}),
		}
	})
}

// EventToRaster allocates events into ST raster cells and aggregates per
// cell.
func EventToRaster[SC geom.Geometry, S geom.Geometry, V, D, U any](
	r *engine.RDD[instance.Event[S, V, D]],
	tgt RasterTarget[SC],
	m Method,
	agg func([]instance.Event[S, V, D]) U,
) *engine.RDD[instance.Raster[SC, U, instance.Unit]] {
	cand := rasterCandidates(r.Ctx(), tgt, m)
	broadcastStructure(r.Ctx(), len(tgt.Cells))
	cells, slots := tgt.Cells, tgt.Slots
	exact := func(e instance.Event[S, V, D], c int) bool {
		return slots[c].Intersects(e.Entry.Temporal) &&
			geom.GeometriesIntersect(e.Entry.Spatial, cells[c])
	}
	return engine.MapPartitions(r, func(_ int, in []instance.Event[S, V, D]) []instance.Raster[SC, U, instance.Unit] {
		buckets := allocateLocal(in, instance.Event[S, V, D].Box, cand, exact, len(cells))
		values := make([]U, len(cells))
		for c := range values {
			values[c] = agg(gather(in, buckets[c]))
		}
		return []instance.Raster[SC, U, instance.Unit]{
			instance.NewRaster(cells, slots, values, instance.Unit{}),
		}
	})
}

// TrajToRaster allocates trajectories into every ST cell a segment passes
// through during the cell's slot, and aggregates per cell.
func TrajToRaster[SC geom.Geometry, V, D, U any](
	r *engine.RDD[instance.Trajectory[V, D]],
	tgt RasterTarget[SC],
	m Method,
	agg func([]instance.Trajectory[V, D]) U,
) *engine.RDD[instance.Raster[SC, U, instance.Unit]] {
	cand := rasterCandidates(r.Ctx(), tgt, m)
	broadcastStructure(r.Ctx(), len(tgt.Cells))
	cells, slots, shapes := tgt.Cells, tgt.Slots, geometries(tgt.Cells)
	return engine.MapPartitions(r, func(_ int, in []instance.Trajectory[V, D]) []instance.Raster[SC, U, instance.Unit] {
		buckets := allocateTrajs(in, shapes, slots, cand)
		values := make([]U, len(cells))
		for c := range values {
			values[c] = agg(gather(in, buckets[c]))
		}
		return []instance.Raster[SC, U, instance.Unit]{
			instance.NewRaster(cells, slots, values, instance.Unit{}),
		}
	})
}

// segmentIntersectsGeometry dispatches the exact segment-cell test by cell
// shape.
func segmentIntersectsGeometry(a, b geom.Point, cell geom.Geometry) bool {
	switch g := cell.(type) {
	case geom.MBR:
		return geom.SegmentIntersectsBox(a, b, g)
	case *geom.Polygon:
		return g.IntersectsSegment(a, b)
	case geom.Point:
		return geom.PointSegmentDistance(g, a, b) == 0
	default:
		// Conservative: box-level test against the cell's MBR.
		return geom.SegmentIntersectsBox(a, b, cell.MBR())
	}
}
