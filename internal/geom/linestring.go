package geom

import (
	"fmt"
	"math"
	"strings"
)

// LineString is an ordered polyline of at least one point. Trajectory shapes
// and road segments are line strings.
type LineString struct {
	points []Point
	mbr    MBR
}

// NewLineString constructs a line string over pts. The slice is retained;
// callers must not mutate it afterwards. NewLineString panics on an empty
// slice — an empty shape is a programming error, not a data condition.
func NewLineString(pts []Point) *LineString {
	if len(pts) == 0 {
		panic("geom: empty LineString")
	}
	mbr := EmptyMBR()
	for _, p := range pts {
		mbr = mbr.ExpandToPoint(p)
	}
	return &LineString{points: pts, mbr: mbr}
}

// Points returns the underlying vertices. The slice must not be mutated.
func (l *LineString) Points() []Point { return l.points }

// Point returns the i-th vertex.
func (l *LineString) Point(i int) Point { return l.points[i] }

// MBR returns the bounding box of the polyline.
func (l *LineString) MBR() MBR { return l.mbr }

// Centroid returns the length-weighted centroid of the segments (the single
// vertex for one-point lines).
func (l *LineString) Centroid() Point {
	if len(l.points) == 1 {
		return l.points[0]
	}
	var cx, cy, total float64
	for i := 1; i < len(l.points); i++ {
		a, b := l.points[i-1], l.points[i]
		w := a.DistanceTo(b)
		cx += w * (a.X + b.X) / 2
		cy += w * (a.Y + b.Y) / 2
		total += w
	}
	if total == 0 {
		return l.points[0]
	}
	return Point{X: cx / total, Y: cy / total}
}

// LengthMeters returns the geodesic (haversine) length in metres, treating
// coordinates as lon/lat degrees.
func (l *LineString) LengthMeters() float64 {
	var sum float64
	for i := 1; i < len(l.points); i++ {
		sum += HaversineMeters(l.points[i-1], l.points[i])
	}
	return sum
}

// DistanceTo returns the planar distance from p to the nearest segment.
func (l *LineString) DistanceTo(p Point) float64 {
	if len(l.points) == 1 {
		return p.DistanceTo(l.points[0])
	}
	min := math.Inf(1)
	for i := 1; i < len(l.points); i++ {
		d := PointSegmentDistance(p, l.points[i-1], l.points[i])
		if d < min {
			min = d
		}
	}
	return min
}

// IntersectsBox reports whether any segment of the polyline intersects b
// (or, for single-point lines, whether the point lies in b).
func (l *LineString) IntersectsBox(b MBR) bool {
	if !l.mbr.Intersects(b) {
		return false
	}
	if len(l.points) == 1 {
		return b.ContainsPoint(l.points[0])
	}
	for i := 1; i < len(l.points); i++ {
		if SegmentIntersectsBox(l.points[i-1], l.points[i], b) {
			return true
		}
	}
	return false
}

// String formats the line string as "LINESTRING(x y, x y, ...)".
func (l *LineString) String() string {
	var sb strings.Builder
	sb.WriteString("LINESTRING(")
	for i, p := range l.points {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%g %g", p.X, p.Y)
	}
	sb.WriteString(")")
	return sb.String()
}

// PointSegmentDistance returns the planar distance from p to segment ab.
func PointSegmentDistance(p, a, b Point) float64 {
	proj, _ := ProjectPointOnSegment(p, a, b)
	return p.DistanceTo(proj)
}

// ProjectPointOnSegment returns the closest point to p on segment ab and the
// normalized position t in [0,1] of that point along the segment.
func ProjectPointOnSegment(p, a, b Point) (Point, float64) {
	abx, aby := b.X-a.X, b.Y-a.Y
	lenSq := abx*abx + aby*aby
	if lenSq == 0 {
		return a, 0
	}
	t := ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / lenSq
	t = math.Max(0, math.Min(1, t))
	return Point{X: a.X + t*abx, Y: a.Y + t*aby}, t
}

// SegmentsIntersect reports whether segments ab and cd share at least one
// point, including collinear overlaps and endpoint touches.
func SegmentsIntersect(a, b, c, d Point) bool {
	d1 := cross(c, d, a)
	d2 := cross(c, d, b)
	d3 := cross(a, b, c)
	d4 := cross(a, b, d)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(c, d, a):
		return true
	case d2 == 0 && onSegment(c, d, b):
		return true
	case d3 == 0 && onSegment(a, b, c):
		return true
	case d4 == 0 && onSegment(a, b, d):
		return true
	}
	return false
}

// SegmentIntersectsBox reports whether segment ab intersects box r.
func SegmentIntersectsBox(a, b Point, r MBR) bool {
	if r.ContainsPoint(a) || r.ContainsPoint(b) {
		return true
	}
	segBox := Box(a.X, a.Y, b.X, b.Y)
	if !segBox.Intersects(r) {
		return false
	}
	c1 := Point{r.MinX, r.MinY}
	c2 := Point{r.MaxX, r.MinY}
	c3 := Point{r.MaxX, r.MaxY}
	c4 := Point{r.MinX, r.MaxY}
	return SegmentsIntersect(a, b, c1, c2) || SegmentsIntersect(a, b, c2, c3) ||
		SegmentsIntersect(a, b, c3, c4) || SegmentsIntersect(a, b, c4, c1)
}

// cross returns the z-component of (b-a) x (p-a): >0 if p is left of ab.
func cross(a, b, p Point) float64 {
	return (b.X-a.X)*(p.Y-a.Y) - (b.Y-a.Y)*(p.X-a.X)
}

// onSegment reports whether p, known collinear with ab, lies within the
// bounding box of ab.
func onSegment(a, b, p Point) bool {
	return min(a.X, b.X) <= p.X && p.X <= max(a.X, b.X) &&
		min(a.Y, b.Y) <= p.Y && p.Y <= max(a.Y, b.Y)
}
