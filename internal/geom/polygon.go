package geom

import (
	"fmt"
	"math"
	"strings"
)

// Polygon is a simple polygon with an exterior ring and optional interior
// rings (holes). Rings are stored without a closing duplicate vertex; the
// closure edge from the last vertex back to the first is implicit.
type Polygon struct {
	exterior []Point
	holes    [][]Point
	mbr      MBR
}

// NewPolygon constructs a polygon from an exterior ring of at least three
// vertices and optional holes. Rings are retained, not copied. A trailing
// vertex equal to the first is dropped so both open and closed ring
// encodings are accepted. NewPolygon panics on rings with fewer than three
// distinct vertices.
func NewPolygon(exterior []Point, holes ...[]Point) *Polygon {
	exterior = dropClosingVertex(exterior)
	if len(exterior) < 3 {
		panic("geom: polygon exterior needs >= 3 vertices")
	}
	mbr := EmptyMBR()
	for _, p := range exterior {
		mbr = mbr.ExpandToPoint(p)
	}
	cleaned := make([][]Point, 0, len(holes))
	for _, h := range holes {
		h = dropClosingVertex(h)
		if len(h) < 3 {
			panic("geom: polygon hole needs >= 3 vertices")
		}
		cleaned = append(cleaned, h)
	}
	return &Polygon{exterior: exterior, holes: cleaned, mbr: mbr}
}

func dropClosingVertex(ring []Point) []Point {
	if len(ring) >= 2 && ring[0].Equal(ring[len(ring)-1]) {
		return ring[:len(ring)-1]
	}
	return ring
}

// Exterior returns the exterior ring vertices (not to be mutated).
func (pg *Polygon) Exterior() []Point { return pg.exterior }

// NumHoles returns the number of interior rings.
func (pg *Polygon) NumHoles() int { return len(pg.holes) }

// Hole returns the i-th interior ring.
func (pg *Polygon) Hole(i int) []Point { return pg.holes[i] }

// MBR returns the bounding box of the exterior ring.
func (pg *Polygon) MBR() MBR { return pg.mbr }

// Area returns the planar area of the polygon (exterior minus holes).
func (pg *Polygon) Area() float64 {
	a := math.Abs(ringArea(pg.exterior))
	for _, h := range pg.holes {
		a -= math.Abs(ringArea(h))
	}
	return a
}

// ringArea returns the signed shoelace area of a ring.
func ringArea(ring []Point) float64 {
	var s float64
	n := len(ring)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		s += ring[i].X*ring[j].Y - ring[j].X*ring[i].Y
	}
	return s / 2
}

// Centroid returns the area-weighted centroid of the exterior ring
// (ignoring holes, which is adequate for partitioning and indexing).
func (pg *Polygon) Centroid() Point {
	var cx, cy float64
	a := ringArea(pg.exterior)
	if a == 0 {
		return pg.mbr.Center()
	}
	n := len(pg.exterior)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		f := pg.exterior[i].X*pg.exterior[j].Y - pg.exterior[j].X*pg.exterior[i].Y
		cx += (pg.exterior[i].X + pg.exterior[j].X) * f
		cy += (pg.exterior[i].Y + pg.exterior[j].Y) * f
	}
	return Point{X: cx / (6 * a), Y: cy / (6 * a)}
}

// ContainsPoint reports whether p lies inside the polygon (border points
// count as inside), using even-odd ray casting over all rings.
func (pg *Polygon) ContainsPoint(p Point) bool {
	if !pg.mbr.ContainsPoint(p) {
		return false
	}
	if pointOnRing(p, pg.exterior) {
		return true
	}
	if !pointInRing(p, pg.exterior) {
		return false
	}
	for _, h := range pg.holes {
		if pointInRing(p, h) && !pointOnRing(p, h) {
			return false
		}
	}
	return true
}

// pointInRing performs even-odd ray casting (border behaviour undefined;
// callers handle borders via pointOnRing first).
func pointInRing(p Point, ring []Point) bool {
	in := false
	n := len(ring)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := ring[i], ring[j]
		if (a.Y > p.Y) != (b.Y > p.Y) &&
			p.X < (b.X-a.X)*(p.Y-a.Y)/(b.Y-a.Y)+a.X {
			in = !in
		}
	}
	return in
}

// pointOnRing reports whether p lies on any edge of the ring.
func pointOnRing(p Point, ring []Point) bool {
	n := len(ring)
	for i := 0; i < n; i++ {
		a, b := ring[i], ring[(i+1)%n]
		if cross(a, b, p) == 0 && onSegment(a, b, p) {
			return true
		}
	}
	return false
}

// DistanceTo returns the planar distance from p to the polygon: zero when p
// is inside, otherwise the distance to the nearest edge.
func (pg *Polygon) DistanceTo(p Point) float64 {
	if pg.ContainsPoint(p) {
		return 0
	}
	min := ringDistance(p, pg.exterior)
	for _, h := range pg.holes {
		if d := ringDistance(p, h); d < min {
			min = d
		}
	}
	return min
}

func ringDistance(p Point, ring []Point) float64 {
	min := math.Inf(1)
	n := len(ring)
	for i := 0; i < n; i++ {
		d := PointSegmentDistance(p, ring[i], ring[(i+1)%n])
		if d < min {
			min = d
		}
	}
	return min
}

// IntersectsBox reports whether the polygon and box r share any point.
func (pg *Polygon) IntersectsBox(r MBR) bool {
	if !pg.mbr.Intersects(r) {
		return false
	}
	// A polygon vertex inside the box, or a box corner inside the polygon,
	// or any edge crossing decides intersection.
	for _, v := range pg.exterior {
		if r.ContainsPoint(v) {
			return true
		}
	}
	if pg.ContainsPoint(Point{r.MinX, r.MinY}) || pg.ContainsPoint(Point{r.MaxX, r.MinY}) ||
		pg.ContainsPoint(Point{r.MaxX, r.MaxY}) || pg.ContainsPoint(Point{r.MinX, r.MaxY}) {
		return true
	}
	n := len(pg.exterior)
	for i := 0; i < n; i++ {
		if SegmentIntersectsBox(pg.exterior[i], pg.exterior[(i+1)%n], r) {
			return true
		}
	}
	return false
}

// IntersectsPolygon reports whether the two polygons share any point,
// testing mutual containment and edge crossings of exterior rings.
func (pg *Polygon) IntersectsPolygon(o *Polygon) bool {
	if !pg.mbr.Intersects(o.mbr) {
		return false
	}
	if pg.ContainsPoint(o.exterior[0]) || o.ContainsPoint(pg.exterior[0]) {
		return true
	}
	n, m := len(pg.exterior), len(o.exterior)
	for i := 0; i < n; i++ {
		a, b := pg.exterior[i], pg.exterior[(i+1)%n]
		for j := 0; j < m; j++ {
			if SegmentsIntersect(a, b, o.exterior[j], o.exterior[(j+1)%m]) {
				return true
			}
		}
	}
	return false
}

// IntersectsLineString reports whether any segment of l crosses or touches
// the polygon (including full containment of l).
func (pg *Polygon) IntersectsLineString(l *LineString) bool {
	if !pg.mbr.Intersects(l.MBR()) {
		return false
	}
	pts := l.Points()
	if pg.ContainsPoint(pts[0]) {
		return true
	}
	for i := 1; i < len(pts); i++ {
		if pg.segmentCrossesExterior(pts[i-1], pts[i]) {
			return true
		}
	}
	return false
}

// IntersectsSegment reports whether segment ab crosses or touches the
// polygon (including full containment of the segment).
func (pg *Polygon) IntersectsSegment(a, b Point) bool {
	if !pg.mbr.Intersects(Box(a.X, a.Y, b.X, b.Y)) {
		return false
	}
	if pg.ContainsPoint(a) || pg.ContainsPoint(b) {
		return true
	}
	return pg.segmentCrossesExterior(a, b)
}

func (pg *Polygon) segmentCrossesExterior(a, b Point) bool {
	n := len(pg.exterior)
	for j := 0; j < n; j++ {
		if SegmentsIntersect(a, b, pg.exterior[j], pg.exterior[(j+1)%n]) {
			return true
		}
	}
	return false
}

// String formats the polygon exterior as "POLYGON((x y, ...))".
func (pg *Polygon) String() string {
	var sb strings.Builder
	sb.WriteString("POLYGON((")
	for i, p := range pg.exterior {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%g %g", p.X, p.Y)
	}
	sb.WriteString("))")
	return sb.String()
}
