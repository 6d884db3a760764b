package extract

import (
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
)

// Collective-instance extractors (Table 3). Flow and speed extractors
// consume converted collective RDDs (cells holding singular instances);
// transit extractors run their own grid pipeline over trajectories.

// TsFlow counts the objects in every time slot and merges the distributed
// partials into one series — the hourly-flow application of Table 7.
func TsFlow[E, D any](
	r *engine.RDD[instance.TimeSeries[[]E, D]],
) (instance.TimeSeries[int64, D], bool) {
	counts := MapTimeSeriesValue(r, func(v []E) int64 { return int64(len(v)) })
	return CollectAndMergeTimeSeries(counts, func(a, b int64) int64 { return a + b })
}

// TsSpeed computes the mean trajectory speed per time slot.
func TsSpeed[V, DT, D any](
	r *engine.RDD[instance.TimeSeries[[]instance.Trajectory[V, DT], D]],
	unit SpeedUnit,
) (instance.TimeSeries[float64, D], bool) {
	accs := engine.Map(r, func(ts instance.TimeSeries[[]instance.Trajectory[V, DT], D]) instance.TimeSeries[MeanAcc, D] {
		return instance.TimeSeries[MeanAcc, D]{Entries: speedAccs(ts.Entries), Data: ts.Data}
	})
	merged, ok := CollectAndMergeTimeSeries(accs, MeanAcc.Merge)
	if !ok {
		var zero instance.TimeSeries[float64, D]
		return zero, false
	}
	entries := make([]instance.Entry[geom.MBR, float64], len(merged.Entries))
	for i, e := range merged.Entries {
		entries[i] = instance.Entry[geom.MBR, float64]{
			Spatial: e.Spatial, Temporal: e.Temporal,
			Value: unit.Convert(e.Value.Mean()),
		}
	}
	return instance.TimeSeries[float64, D]{Entries: entries, Data: merged.Data}, true
}

// speedKey identifies a trajectory by its entries. A conversion's
// placements of one trajectory share its entries array, and the length
// keeps two sub-slices of one array apart.
type speedKey[V any] struct {
	first *instance.Entry[geom.Point, V]
	n     int
}

// speedAccs maps every cell's trajectories to the MeanAcc of their average
// speeds, adding them in cell and trajectory order. A trajectory placed in
// many cells of one collective instance has AvgSpeedMps computed once: the
// memo lives for one instance's map call, so it is task-local.
func speedAccs[S geom.Geometry, V, DT any](
	cells []instance.Entry[S, []instance.Trajectory[V, DT]],
) []instance.Entry[S, MeanAcc] {
	memo := make(map[speedKey[V]]float64)
	out := make([]instance.Entry[S, MeanAcc], len(cells))
	for i, e := range cells {
		var a MeanAcc
		for _, tr := range e.Value {
			if len(tr.Entries) == 0 {
				a = a.Add(tr.AvgSpeedMps())
				continue
			}
			k := speedKey[V]{&tr.Entries[0], len(tr.Entries)}
			v, ok := memo[k]
			if !ok {
				v = tr.AvgSpeedMps()
				memo[k] = v
			}
			a = a.Add(v)
		}
		out[i] = instance.Entry[S, MeanAcc]{Spatial: e.Spatial, Temporal: e.Temporal, Value: a}
	}
	return out
}

// TsWindowFreq returns sliding-window sums of a count series: output[i] =
// sum of counts[i..i+window-1]. It panics for window < 1 and returns nil
// when the series is shorter than the window.
func TsWindowFreq[D any](ts instance.TimeSeries[int64, D], window int) []int64 {
	if window < 1 {
		panic("extract: window < 1")
	}
	n := ts.Len() - window + 1
	if n <= 0 {
		return nil
	}
	out := make([]int64, n)
	var sum int64
	for i := 0; i < window; i++ {
		sum += ts.Entries[i].Value
	}
	out[0] = sum
	for i := 1; i < n; i++ {
		sum += ts.Entries[i+window-1].Value - ts.Entries[i-1].Value
		out[i] = sum
	}
	return out
}

// SmFlow counts the objects in every spatial cell and merges partials —
// the regional-flow / POI-count application.
func SmFlow[S geom.Geometry, E, D any](
	r *engine.RDD[instance.SpatialMap[S, []E, D]],
) (instance.SpatialMap[S, int64, D], bool) {
	counts := MapSpatialMapValue(r, func(v []E) int64 { return int64(len(v)) })
	return CollectAndMergeSpatialMap(counts, func(a, b int64) int64 { return a + b })
}

// SmSpeed computes the mean trajectory speed per spatial cell — the
// grid-speed application of Table 7.
func SmSpeed[S geom.Geometry, V, DT, D any](
	r *engine.RDD[instance.SpatialMap[S, []instance.Trajectory[V, DT], D]],
	unit SpeedUnit,
) (instance.SpatialMap[S, float64, D], bool) {
	accs := engine.Map(r, func(sm instance.SpatialMap[S, []instance.Trajectory[V, DT], D]) instance.SpatialMap[S, MeanAcc, D] {
		return instance.SpatialMap[S, MeanAcc, D]{Entries: speedAccs(sm.Entries), Data: sm.Data}
	})
	merged, ok := CollectAndMergeSpatialMap(accs, MeanAcc.Merge)
	if !ok {
		var zero instance.SpatialMap[S, float64, D]
		return zero, false
	}
	entries := make([]instance.Entry[S, float64], len(merged.Entries))
	for i, e := range merged.Entries {
		entries[i] = instance.Entry[S, float64]{
			Spatial: e.Spatial, Temporal: e.Temporal,
			Value: unit.Convert(e.Value.Mean()),
		}
	}
	return instance.SpatialMap[S, float64, D]{Entries: entries, Data: merged.Data}, true
}

// RasterFlow counts objects per ST cell and merges partials.
func RasterFlow[S geom.Geometry, E, D any](
	r *engine.RDD[instance.Raster[S, []E, D]],
) (instance.Raster[S, int64, D], bool) {
	counts := MapRasterValue(r, func(v []E) int64 { return int64(len(v)) })
	return CollectAndMergeRaster(counts, func(a, b int64) int64 { return a + b })
}

// CellSpeed is one raster cell's traffic summary: how many vehicles
// appeared and their mean speed.
type CellSpeed struct {
	Count int64
	Mean  float64
}

// RasterSpeed computes per-ST-cell vehicle counts and mean speeds — the
// paper's running example (§3.4) and the case-study extraction of Fig. 9.
func RasterSpeed[S geom.Geometry, V, DT, D any](
	r *engine.RDD[instance.Raster[S, []instance.Trajectory[V, DT], D]],
	unit SpeedUnit,
) (instance.Raster[S, CellSpeed, D], bool) {
	accs := engine.Map(r, func(ra instance.Raster[S, []instance.Trajectory[V, DT], D]) instance.Raster[S, MeanAcc, D] {
		return instance.Raster[S, MeanAcc, D]{Entries: speedAccs(ra.Entries), Data: ra.Data}
	})
	merged, ok := CollectAndMergeRaster(accs, MeanAcc.Merge)
	if !ok {
		var zero instance.Raster[S, CellSpeed, D]
		return zero, false
	}
	entries := make([]instance.Entry[S, CellSpeed], len(merged.Entries))
	for i, e := range merged.Entries {
		entries[i] = instance.Entry[S, CellSpeed]{
			Spatial: e.Spatial, Temporal: e.Temporal,
			Value: CellSpeed{Count: e.Value.N, Mean: unit.Convert(e.Value.Mean())},
		}
	}
	return instance.Raster[S, CellSpeed, D]{Entries: entries, Data: merged.Data}, true
}

// SmTransit extracts per-cell in/out flows over a spatial grid: every
// consecutive trajectory point pair that changes cell contributes one exit
// to the source cell and one entry to the destination cell.
func SmTransit[V, D any](
	r *engine.RDD[instance.Trajectory[V, D]],
	grid instance.SpatialGrid,
) instance.SpatialMap[geom.MBR, InOut, instance.Unit] {
	n := grid.NumCells()
	flows := engine.Aggregate(r,
		nil,
		func(acc []InOut, tr instance.Trajectory[V, D]) []InOut {
			if acc == nil {
				acc = make([]InOut, n)
			}
			prev := -1
			for _, e := range tr.Entries {
				cell := grid.Locate(e.Spatial)
				if prev >= 0 && cell >= 0 && cell != prev {
					acc[prev].Out++
					acc[cell].In++
				}
				if cell >= 0 {
					prev = cell
				}
			}
			return acc
		},
		mergeInOut)
	if flows == nil {
		flows = make([]InOut, n)
	}
	return instance.NewSpatialMap(grid.Cells(), flows, instance.Unit{})
}

// RasterTransit extracts per-ST-cell in/out flows over a raster grid: a
// cell transition at time t contributes to the source and destination cells
// in t's slot — the transition application of Table 7.
func RasterTransit[V, D any](
	r *engine.RDD[instance.Trajectory[V, D]],
	grid instance.RasterGrid,
) instance.Raster[geom.MBR, InOut, instance.Unit] {
	n := grid.NumCells()
	per := grid.Space.NumCells()
	flows := engine.Aggregate(r,
		nil,
		func(acc []InOut, tr instance.Trajectory[V, D]) []InOut {
			if acc == nil {
				acc = make([]InOut, n)
			}
			prevCell, prevSlot := -1, -1
			for _, e := range tr.Entries {
				cell := grid.Space.Locate(e.Spatial)
				slotLo, slotHi, ok := grid.Time.SlotRange(e.Temporal)
				slot := -1
				if ok {
					slot = slotLo
					_ = slotHi
				}
				if prevCell >= 0 && cell >= 0 && slot >= 0 && cell != prevCell {
					acc[prevSlot*per+prevCell].Out++
					acc[slot*per+cell].In++
				}
				if cell >= 0 && slot >= 0 {
					prevCell, prevSlot = cell, slot
				}
			}
			return acc
		},
		mergeInOut)
	if flows == nil {
		flows = make([]InOut, n)
	}
	cells, slots := grid.Build()
	return instance.NewRaster(cells, slots, flows, instance.Unit{})
}

func mergeInOut(a, b []InOut) []InOut {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	for i := range a {
		a[i] = a[i].Merge(b[i])
	}
	return a
}
