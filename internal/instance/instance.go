// Package instance defines ST4ML's five spatio-temporal instance
// abstractions (§3.2.1 of the paper): Event, Trajectory, TimeSeries,
// SpatialMap, and Raster, built from a common Entry type.
//
// Events and trajectories are *singular* instances — each one is an atomic
// real-world record. Time series, spatial maps, and rasters are *collective*
// instances — arrays of parallel cells whose value fields aggregate or
// collect singular instances. Conversions between them live in package
// convert.
//
// Type parameters mirror the paper's Scala signatures:
//
//	Entry[S Geometry, V]        — spatial shape S, entry-level value V
//	Event[S, V, D]              — one entry plus instance-level data D
//	Trajectory[V, D]            — point entries sorted by time
//	TimeSeries[V, D]            — temporal cells
//	SpatialMap[S, V, D]         — spatial cells of shape S
//	Raster[S, V, D]             — spatio-temporal cells
package instance

import (
	"sort"

	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/tempo"
)

// Entry is the unit of ST information: a spatial shape, a time interval
// (an instant is a degenerate interval), and an entry-level value.
type Entry[S geom.Geometry, V any] struct {
	Spatial  S
	Temporal tempo.Duration
	Value    V
}

// Box returns the entry's 3-d ST bounding box.
func (e Entry[S, V]) Box() index.Box {
	return index.Box3(e.Spatial.MBR(), e.Temporal)
}

// Intersects reports whether the entry's extent intersects the ST window.
func (e Entry[S, V]) Intersects(s geom.MBR, t tempo.Duration) bool {
	return e.Temporal.Intersects(t) && e.Spatial.IntersectsBox(s)
}

// entriesExtent returns the spatial MBR covering all entries.
func entriesExtent[S geom.Geometry, V any](entries []Entry[S, V]) geom.MBR {
	b := geom.EmptyMBR()
	for _, e := range entries {
		b = b.Union(e.Spatial.MBR())
	}
	return b
}

// entriesDuration returns the time interval covering all entries.
func entriesDuration[S geom.Geometry, V any](entries []Entry[S, V]) tempo.Duration {
	d := tempo.Empty()
	for _, e := range entries {
		d = d.Union(e.Temporal)
	}
	return d
}

// Event is a singular instance with exactly one entry: a camera snapshot, a
// check-in, a taxi pick-up.
type Event[S geom.Geometry, V, D any] struct {
	Entry Entry[S, V]
	Data  D
}

// NewEvent constructs an event from its parts.
func NewEvent[S geom.Geometry, V, D any](s S, t tempo.Duration, v V, d D) Event[S, V, D] {
	return Event[S, V, D]{Entry: Entry[S, V]{Spatial: s, Temporal: t, Value: v}, Data: d}
}

// Extent returns the event's spatial bounding box.
func (e Event[S, V, D]) Extent() geom.MBR { return e.Entry.Spatial.MBR() }

// Duration returns the event's time interval.
func (e Event[S, V, D]) Duration() tempo.Duration { return e.Entry.Temporal }

// Box returns the event's 3-d ST box.
func (e Event[S, V, D]) Box() index.Box { return e.Entry.Box() }

// Intersects reports whether the event lies in the ST window.
func (e Event[S, V, D]) Intersects(s geom.MBR, t tempo.Duration) bool {
	return e.Entry.Intersects(s, t)
}

// MapEventData rewrites the instance-level data field, keeping the entry —
// the preMap building block of customized conversions (§3.2.2).
func MapEventData[S geom.Geometry, V, D, D2 any](e Event[S, V, D], f func(D) D2) Event[S, V, D2] {
	return Event[S, V, D2]{Entry: e.Entry, Data: f(e.Data)}
}

// Trajectory is a singular instance: a time-ordered sequence of ST points.
type Trajectory[V, D any] struct {
	Entries []Entry[geom.Point, V]
	Data    D
}

// NewTrajectory constructs a trajectory, sorting entries by start time if
// needed. The entries slice is retained.
func NewTrajectory[V, D any](entries []Entry[geom.Point, V], data D) Trajectory[V, D] {
	if !sort.SliceIsSorted(entries, func(i, j int) bool {
		return entries[i].Temporal.Start < entries[j].Temporal.Start
	}) {
		sort.SliceStable(entries, func(i, j int) bool {
			return entries[i].Temporal.Start < entries[j].Temporal.Start
		})
	}
	return Trajectory[V, D]{Entries: entries, Data: data}
}

// Len returns the number of sojourn points.
func (tr Trajectory[V, D]) Len() int { return len(tr.Entries) }

// Extent returns the spatial bounding box of all points.
func (tr Trajectory[V, D]) Extent() geom.MBR { return entriesExtent(tr.Entries) }

// Duration returns the trajectory's covered time interval.
func (tr Trajectory[V, D]) Duration() tempo.Duration { return entriesDuration(tr.Entries) }

// Box returns the trajectory's 3-d ST box.
func (tr Trajectory[V, D]) Box() index.Box {
	return index.Box3(tr.Extent(), tr.Duration())
}

// Intersects reports whether any segment's box overlaps the ST window.
// (Box-level test: exact per-segment geometry is applied by callers that
// need it.)
func (tr Trajectory[V, D]) Intersects(s geom.MBR, t tempo.Duration) bool {
	if !tr.Duration().Intersects(t) || !tr.Extent().Intersects(s) {
		return false
	}
	if len(tr.Entries) == 1 {
		return tr.Entries[0].Intersects(s, t)
	}
	for i := 1; i < len(tr.Entries); i++ {
		a, b := tr.Entries[i-1], tr.Entries[i]
		segT := a.Temporal.Union(b.Temporal)
		if !segT.Intersects(t) {
			continue
		}
		if geom.SegmentIntersectsBox(a.Spatial, b.Spatial, s) {
			return true
		}
	}
	return false
}

// LineString returns the trajectory's shape as a polyline.
func (tr Trajectory[V, D]) LineString() *geom.LineString {
	pts := make([]geom.Point, len(tr.Entries))
	for i, e := range tr.Entries {
		pts[i] = e.Spatial
	}
	return geom.NewLineString(pts)
}

// LengthMeters returns the geodesic length of the trajectory in metres.
func (tr Trajectory[V, D]) LengthMeters() float64 {
	var sum float64
	for i := 1; i < len(tr.Entries); i++ {
		sum += geom.HaversineMeters(tr.Entries[i-1].Spatial, tr.Entries[i].Spatial)
	}
	return sum
}

// AvgSpeedMps returns the average speed in metres/second over the whole
// trajectory, or 0 when the duration is zero.
func (tr Trajectory[V, D]) AvgSpeedMps() float64 {
	secs := tr.Duration().Seconds()
	if secs == 0 {
		return 0
	}
	return tr.LengthMeters() / float64(secs)
}

// MapTrajData rewrites the instance-level data field.
func MapTrajData[V, D, D2 any](tr Trajectory[V, D], f func(D) D2) Trajectory[V, D2] {
	return Trajectory[V, D2]{Entries: tr.Entries, Data: f(tr.Data)}
}
