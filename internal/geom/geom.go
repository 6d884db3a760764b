// Package geom provides the planar and geodesic geometry primitives used
// throughout ST4ML: points, bounding boxes, line strings, and polygons,
// together with the intersection, containment, and distance predicates that
// the indexes, partitioners, and converters are built on.
//
// Coordinates follow the (longitude, latitude) = (X, Y) convention of the
// paper's datasets. Predicates operate in the planar sense; metric distances
// (metres) are available through the haversine helpers in distance.go.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-d location. X is longitude (or planar x), Y is latitude.
type Point struct {
	X, Y float64
}

// Pt is a shorthand constructor for Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// MBR returns the degenerate bounding box of the point.
func (p Point) MBR() MBR { return MBR{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y} }

// Centroid returns the point itself.
func (p Point) Centroid() Point { return p }

// Equal reports whether two points have identical coordinates.
func (p Point) Equal(q Point) bool { return p.X == q.X && p.Y == q.Y }

// DistanceTo returns the planar Euclidean distance to q.
func (p Point) DistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// IntersectsBox reports whether the point lies inside (or on the border of) b.
func (p Point) IntersectsBox(b MBR) bool { return b.ContainsPoint(p) }

// String formats the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// MBR is a minimum bounding rectangle (an axis-aligned 2-d box). An MBR with
// MinX > MaxX is treated as empty.
type MBR struct {
	MinX, MinY, MaxX, MaxY float64
}

// Box constructs an MBR from two corner coordinates, normalizing order.
func Box(x1, y1, x2, y2 float64) MBR {
	return MBR{
		MinX: min(x1, x2), MinY: min(y1, y2),
		MaxX: max(x1, x2), MaxY: max(y1, y2),
	}
}

// EmptyMBR returns the identity element for Union: a box that contains
// nothing and unions to the other operand.
func EmptyMBR() MBR {
	return MBR{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
}

// IsEmpty reports whether the box contains no points.
func (b MBR) IsEmpty() bool { return b.MinX > b.MaxX || b.MinY > b.MaxY }

// Width returns the X extent (0 for empty boxes).
func (b MBR) Width() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxX - b.MinX
}

// Height returns the Y extent (0 for empty boxes).
func (b MBR) Height() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxY - b.MinY
}

// Area returns the area of the box (0 for empty boxes).
func (b MBR) Area() float64 { return b.Width() * b.Height() }

// Center returns the box center. Undefined for empty boxes.
func (b MBR) Center() Point { return Point{X: (b.MinX + b.MaxX) / 2, Y: (b.MinY + b.MaxY) / 2} }

// Centroid returns the box center, satisfying the Geometry interface.
func (b MBR) Centroid() Point { return b.Center() }

// ContainsPoint reports whether p lies inside or on the border of b.
func (b MBR) ContainsPoint(p Point) bool {
	return p.X >= b.MinX && p.X <= b.MaxX && p.Y >= b.MinY && p.Y <= b.MaxY
}

// Contains reports whether o lies entirely inside b. Every box contains the
// empty box.
func (b MBR) Contains(o MBR) bool {
	if o.IsEmpty() {
		return true
	}
	return o.MinX >= b.MinX && o.MaxX <= b.MaxX && o.MinY >= b.MinY && o.MaxY <= b.MaxY
}

// Intersects reports whether the two boxes share at least one point
// (touching borders count). Empty boxes intersect nothing.
func (b MBR) Intersects(o MBR) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX && b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// Intersection returns the overlapping region of the two boxes, which is
// empty when they do not intersect.
func (b MBR) Intersection(o MBR) MBR {
	r := MBR{
		MinX: max(b.MinX, o.MinX), MinY: max(b.MinY, o.MinY),
		MaxX: min(b.MaxX, o.MaxX), MaxY: min(b.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return EmptyMBR()
	}
	return r
}

// Union returns the smallest box containing both operands.
func (b MBR) Union(o MBR) MBR {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return MBR{
		MinX: min(b.MinX, o.MinX), MinY: min(b.MinY, o.MinY),
		MaxX: max(b.MaxX, o.MaxX), MaxY: max(b.MaxY, o.MaxY),
	}
}

// ExpandToPoint returns the smallest box containing b and p.
func (b MBR) ExpandToPoint(p Point) MBR { return b.Union(p.MBR()) }

// Buffer returns the box grown by d on every side.
func (b MBR) Buffer(d float64) MBR {
	if b.IsEmpty() {
		return b
	}
	return MBR{MinX: b.MinX - d, MinY: b.MinY - d, MaxX: b.MaxX + d, MaxY: b.MaxY + d}
}

// MBR returns the receiver, satisfying the Geometry interface.
func (b MBR) MBR() MBR { return b }

// IntersectsBox is Intersects under the Geometry interface.
func (b MBR) IntersectsBox(o MBR) bool { return b.Intersects(o) }

// DistanceTo returns the planar distance from the box to p (0 if inside).
func (b MBR) DistanceTo(p Point) float64 {
	if b.IsEmpty() {
		return math.Inf(1)
	}
	dx := max(0, b.MinX-p.X, p.X-b.MaxX)
	dy := max(0, b.MinY-p.Y, p.Y-b.MaxY)
	return math.Sqrt(dx*dx + dy*dy)
}

// ToPolygon converts the box to an equivalent 4-vertex polygon.
func (b MBR) ToPolygon() *Polygon {
	return NewPolygon([]Point{
		{b.MinX, b.MinY}, {b.MaxX, b.MinY}, {b.MaxX, b.MaxY}, {b.MinX, b.MaxY},
	})
}

// String formats the box as "[minx,miny | maxx,maxy]".
func (b MBR) String() string {
	return fmt.Sprintf("[%g,%g | %g,%g]", b.MinX, b.MinY, b.MaxX, b.MaxY)
}

// Geometry is the spatial field type of an ST entry: anything with a
// bounding box, a representative point, a planar distance to a point, and a
// box-intersection predicate. Point, MBR, *LineString, and *Polygon all
// satisfy it.
type Geometry interface {
	MBR() MBR
	Centroid() Point
	DistanceTo(p Point) float64
	IntersectsBox(b MBR) bool
}

var (
	_ Geometry = Point{}
	_ Geometry = MBR{}
	_ Geometry = (*LineString)(nil)
	_ Geometry = (*Polygon)(nil)
)
