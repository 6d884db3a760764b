package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMBRBasics(t *testing.T) {
	b := Box(2, 3, 0, 1) // normalized regardless of corner order
	if b.MinX != 0 || b.MinY != 1 || b.MaxX != 2 || b.MaxY != 3 {
		t.Fatalf("Box not normalized: %v", b)
	}
	if got := b.Width(); got != 2 {
		t.Errorf("Width = %g, want 2", got)
	}
	if got := b.Height(); got != 2 {
		t.Errorf("Height = %g, want 2", got)
	}
	if got := b.Area(); got != 4 {
		t.Errorf("Area = %g, want 4", got)
	}
	if c := b.Center(); c != Pt(1, 2) {
		t.Errorf("Center = %v, want (1,2)", c)
	}
}

func TestEmptyMBR(t *testing.T) {
	e := EmptyMBR()
	if !e.IsEmpty() {
		t.Fatal("EmptyMBR not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Error("empty box should have zero extent")
	}
	b := Box(0, 0, 1, 1)
	if got := e.Union(b); got != b {
		t.Errorf("empty union b = %v, want %v", got, b)
	}
	if got := b.Union(e); got != b {
		t.Errorf("b union empty = %v, want %v", got, b)
	}
	if e.Intersects(b) || b.Intersects(e) {
		t.Error("empty box must intersect nothing")
	}
	if !b.Contains(e) {
		t.Error("every box contains the empty box")
	}
}

func TestMBRIntersects(t *testing.T) {
	a := Box(0, 0, 10, 10)
	cases := []struct {
		name string
		b    MBR
		want bool
	}{
		{"inside", Box(2, 2, 3, 3), true},
		{"overlap", Box(5, 5, 15, 15), true},
		{"touch edge", Box(10, 0, 20, 10), true},
		{"touch corner", Box(10, 10, 20, 20), true},
		{"disjoint x", Box(11, 0, 20, 10), false},
		{"disjoint y", Box(0, 11, 10, 20), false},
		{"containing", Box(-5, -5, 15, 15), true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%s: Intersects = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("%s (sym): Intersects = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMBRIntersection(t *testing.T) {
	a := Box(0, 0, 10, 10)
	b := Box(5, 5, 15, 15)
	got := a.Intersection(b)
	if got != Box(5, 5, 10, 10) {
		t.Errorf("Intersection = %v", got)
	}
	if !a.Intersection(Box(20, 20, 30, 30)).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestMBRDistanceTo(t *testing.T) {
	b := Box(0, 0, 10, 10)
	if d := b.DistanceTo(Pt(5, 5)); d != 0 {
		t.Errorf("inside distance = %g, want 0", d)
	}
	if d := b.DistanceTo(Pt(13, 14)); d != 5 {
		t.Errorf("corner distance = %g, want 5", d)
	}
	if d := b.DistanceTo(Pt(-3, 5)); d != 3 {
		t.Errorf("edge distance = %g, want 3", d)
	}
}

func TestMBRUnionProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Union is commutative and contains both operands.
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := Box(clampf(x1), clampf(y1), clampf(x2), clampf(y2))
		b := Box(clampf(x3), clampf(y3), clampf(x4), clampf(y4))
		u := a.Union(b)
		return u == b.Union(a) && u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func clampf(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestPointDistance(t *testing.T) {
	if d := Pt(0, 0).DistanceTo(Pt(3, 4)); d != 5 {
		t.Errorf("distance = %g, want 5", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		a, b := Pt(clampf(x1), clampf(y1)), Pt(clampf(x2), clampf(y2))
		return a.DistanceTo(b) == b.DistanceTo(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLineStringBasics(t *testing.T) {
	l := NewLineString([]Point{{0, 0}, {3, 4}, {3, 8}})
	if n := len(l.Points()); n != 3 {
		t.Fatalf("points = %d", n)
	}
	if got := l.MBR(); got != Box(0, 0, 3, 8) {
		t.Errorf("MBR = %v", got)
	}
}

func TestLineStringPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty linestring")
		}
	}()
	NewLineString(nil)
}

func TestLineStringDistanceTo(t *testing.T) {
	l := NewLineString([]Point{{0, 0}, {10, 0}})
	if d := l.DistanceTo(Pt(5, 3)); d != 3 {
		t.Errorf("mid distance = %g, want 3", d)
	}
	if d := l.DistanceTo(Pt(-4, 3)); d != 5 {
		t.Errorf("end distance = %g, want 5", d)
	}
	single := NewLineString([]Point{{1, 1}})
	if d := single.DistanceTo(Pt(1, 4)); d != 3 {
		t.Errorf("single-point distance = %g, want 3", d)
	}
}

func TestLineStringIntersectsBox(t *testing.T) {
	l := NewLineString([]Point{{0, 0}, {10, 10}})
	if !l.IntersectsBox(Box(4, 4, 6, 6)) {
		t.Error("diagonal should cross central box")
	}
	// MBRs overlap but the segment passes outside the box.
	if l.IntersectsBox(Box(0, 8, 1, 10)) {
		t.Error("segment should miss corner box")
	}
	if !l.IntersectsBox(Box(-1, -1, 0, 0)) {
		t.Error("endpoint touch should intersect")
	}
}

func TestProjectPointOnSegment(t *testing.T) {
	p, tt := ProjectPointOnSegment(Pt(5, 5), Pt(0, 0), Pt(10, 0))
	if p != Pt(5, 0) || tt != 0.5 {
		t.Errorf("projection = %v t=%g", p, tt)
	}
	p, tt = ProjectPointOnSegment(Pt(-5, 5), Pt(0, 0), Pt(10, 0))
	if p != Pt(0, 0) || tt != 0 {
		t.Errorf("clamped projection = %v t=%g", p, tt)
	}
	// Degenerate zero-length segment.
	p, tt = ProjectPointOnSegment(Pt(1, 1), Pt(2, 2), Pt(2, 2))
	if p != Pt(2, 2) || tt != 0 {
		t.Errorf("degenerate projection = %v t=%g", p, tt)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		name       string
		a, b, c, d Point
		want       bool
	}{
		{"crossing", Pt(0, 0), Pt(10, 10), Pt(0, 10), Pt(10, 0), true},
		{"parallel", Pt(0, 0), Pt(10, 0), Pt(0, 1), Pt(10, 1), false},
		{"touch endpoint", Pt(0, 0), Pt(5, 5), Pt(5, 5), Pt(10, 0), true},
		{"collinear overlap", Pt(0, 0), Pt(10, 0), Pt(5, 0), Pt(15, 0), true},
		{"collinear disjoint", Pt(0, 0), Pt(4, 0), Pt(5, 0), Pt(9, 0), false},
		{"T junction", Pt(0, 0), Pt(10, 0), Pt(5, -5), Pt(5, 0), true},
		{"near miss", Pt(0, 0), Pt(10, 0), Pt(5, 0.001), Pt(5, 5), false},
	}
	for _, c := range cases {
		if got := SegmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
		if got := SegmentsIntersect(c.c, c.d, c.a, c.b); got != c.want {
			t.Errorf("%s (sym): got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	// L-shaped polygon.
	pg := NewPolygon([]Point{{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}})
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(1, 1), true},
		{Pt(3, 1), true},
		{Pt(1, 3), true},
		{Pt(3, 3), false}, // inside MBR, outside L
		{Pt(5, 5), false},
		{Pt(0, 0), true}, // vertex
		{Pt(2, 0), true}, // on edge
	}
	for _, c := range cases {
		if got := pg.ContainsPoint(c.p); got != c.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPolygonWithHole(t *testing.T) {
	pg := NewPolygon(
		[]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
		[]Point{{4, 4}, {6, 4}, {6, 6}, {4, 6}},
	)
	if !pg.ContainsPoint(Pt(2, 2)) {
		t.Error("point in solid region should be inside")
	}
	if pg.ContainsPoint(Pt(5, 5)) {
		t.Error("point in hole should be outside")
	}
	if got, want := pg.Area(), 96.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Area = %g, want %g", got, want)
	}
}

func TestPolygonClosedRingAccepted(t *testing.T) {
	open := NewPolygon([]Point{{0, 0}, {1, 0}, {1, 1}})
	closed := NewPolygon([]Point{{0, 0}, {1, 0}, {1, 1}, {0, 0}})
	if open.Area() != closed.Area() {
		t.Error("open and closed ring encodings should agree")
	}
	if len(closed.Exterior()) != 3 {
		t.Errorf("closing vertex not dropped: %d vertices", len(closed.Exterior()))
	}
}

func TestPolygonCentroidAndArea(t *testing.T) {
	sq := NewPolygon([]Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}})
	if got := sq.Area(); got != 4 {
		t.Errorf("Area = %g, want 4", got)
	}
	if c := sq.Centroid(); math.Abs(c.X-1) > 1e-12 || math.Abs(c.Y-1) > 1e-12 {
		t.Errorf("Centroid = %v, want (1,1)", c)
	}
}

func TestPolygonIntersectsBox(t *testing.T) {
	pg := NewPolygon([]Point{{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}})
	if !pg.IntersectsBox(Box(1, 1, 1.5, 1.5)) {
		t.Error("box inside polygon")
	}
	if !pg.IntersectsBox(Box(-1, -1, 5, 5)) {
		t.Error("box containing polygon")
	}
	if pg.IntersectsBox(Box(3, 3, 3.9, 3.9)) {
		t.Error("box in the L notch should not intersect")
	}
	if pg.IntersectsBox(Box(10, 10, 20, 20)) {
		t.Error("disjoint box")
	}
}

func TestPolygonIntersectsPolygon(t *testing.T) {
	a := NewPolygon([]Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	b := NewPolygon([]Point{{2, 2}, {6, 2}, {6, 6}, {2, 6}})
	c := NewPolygon([]Point{{10, 10}, {12, 10}, {12, 12}, {10, 12}})
	inner := NewPolygon([]Point{{1, 1}, {2, 1}, {2, 2}, {1, 2}})
	if !a.IntersectsPolygon(b) || !b.IntersectsPolygon(a) {
		t.Error("overlapping polygons")
	}
	if a.IntersectsPolygon(c) {
		t.Error("disjoint polygons")
	}
	if !a.IntersectsPolygon(inner) || !inner.IntersectsPolygon(a) {
		t.Error("contained polygon")
	}
}

func TestPolygonIntersectsLineString(t *testing.T) {
	pg := NewPolygon([]Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	crossing := NewLineString([]Point{{-2, 2}, {6, 2}})
	inside := NewLineString([]Point{{1, 1}, {2, 2}})
	outside := NewLineString([]Point{{5, 5}, {6, 6}})
	if !pg.IntersectsLineString(crossing) {
		t.Error("crossing line")
	}
	if !pg.IntersectsLineString(inside) {
		t.Error("contained line")
	}
	if pg.IntersectsLineString(outside) {
		t.Error("disjoint line")
	}
}

func TestHaversine(t *testing.T) {
	// Paris -> London, roughly 344 km.
	paris := Pt(2.3522, 48.8566)
	london := Pt(-0.1276, 51.5072)
	d := HaversineMeters(paris, london)
	if d < 330e3 || d > 360e3 {
		t.Errorf("Paris-London = %g m, want ~344 km", d)
	}
	if HaversineMeters(paris, paris) != 0 {
		t.Error("zero distance to self")
	}
}

func TestMetersDegreesRoundTrip(t *testing.T) {
	m := 1234.5
	if got := MetersToDegreesLat(m) * math.Pi / 180 * EarthRadiusMeters; math.Abs(got-m) > 1e-6 {
		t.Errorf("round trip = %g, want %g", got, m)
	}
	// 1 degree of longitude at the equator ~ 111 km.
	if d := MetersToDegreesLon(111194.9, 0); math.Abs(d-1) > 0.01 {
		t.Errorf("1 deg lon at equator = %g", d)
	}
}

func TestGeometriesIntersectDispatch(t *testing.T) {
	pg := NewPolygon([]Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	ls := NewLineString([]Point{{-2, 2}, {6, 2}})
	cases := []struct {
		name string
		a, b Geometry
		want bool
	}{
		{"point-point eq", Pt(1, 1), Pt(1, 1), true},
		{"point-point ne", Pt(1, 1), Pt(1, 2), false},
		{"point-polygon in", Pt(2, 2), pg, true},
		{"polygon-point out", pg, Pt(9, 9), false},
		{"line-polygon", ls, pg, true},
		{"polygon-line", pg, ls, true},
		{"box-polygon", Box(1, 1, 2, 2), pg, true},
		{"line-line cross", ls, NewLineString([]Point{{0, 0}, {0, 5}}), true},
		{"line-line miss", ls, NewLineString([]Point{{0, 3}, {6, 3}}), false},
		{"point-line on", Pt(0, 2), ls, true},
	}
	for _, c := range cases {
		if got := GeometriesIntersect(c.a, c.b); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestGeometryDistance(t *testing.T) {
	pg := NewPolygon([]Point{{0, 0}, {4, 0}, {4, 4}, {0, 4}})
	if d := pg.DistanceTo(Pt(7, 4)); d != 3 {
		t.Errorf("point-polygon = %g, want 3", d)
	}
	if d := pg.DistanceTo(Pt(2, 2)); d != 0 {
		t.Errorf("inside = %g, want 0", d)
	}
}

func TestLineStringCentroid(t *testing.T) {
	l := NewLineString([]Point{{0, 0}, {10, 0}})
	if c := l.Centroid(); c != Pt(5, 0) {
		t.Errorf("Centroid = %v, want (5,0)", c)
	}
	single := NewLineString([]Point{{3, 4}})
	if c := single.Centroid(); c != Pt(3, 4) {
		t.Errorf("single Centroid = %v", c)
	}
}

// Property: for random boxes and points, MBR.DistanceTo is 0 iff the point
// is contained.
func TestMBRDistanceZeroIffContained(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		b := Box(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		p := Pt(rng.Float64()*12-1, rng.Float64()*12-1)
		if (b.DistanceTo(p) == 0) != b.ContainsPoint(p) {
			t.Fatalf("distance-zero/containment disagree: %v %v", b, p)
		}
	}
}

// Property: polygon containment of its own centroid for random convex
// quadrilaterals (convexity by construction around a circle).
func TestPolygonContainsOwnCentroidConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		r := 1 + rng.Float64()*10
		var ring []Point
		for k := 0; k < 8; k++ {
			ang := (float64(k) + rng.Float64()*0.5) / 8 * 2 * math.Pi
			ring = append(ring, Pt(cx+r*math.Cos(ang), cy+r*math.Sin(ang)))
		}
		pg := NewPolygon(ring)
		if !pg.ContainsPoint(pg.Centroid()) {
			t.Fatalf("convex polygon does not contain its centroid: %v", pg)
		}
	}
}

// Property: SegmentIntersectsBox agrees with a brute-force sampling check
// for random segments and boxes (sampling can only prove intersection, so
// assert one direction).
func TestSegmentIntersectsBoxSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		a := Pt(rng.Float64()*10, rng.Float64()*10)
		b := Pt(rng.Float64()*10, rng.Float64()*10)
		box := Box(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		hitBySample := false
		for s := 0; s <= 100; s++ {
			tt := float64(s) / 100
			p := Pt(a.X+(b.X-a.X)*tt, a.Y+(b.Y-a.Y)*tt)
			if box.ContainsPoint(p) {
				hitBySample = true
				break
			}
		}
		if hitBySample && !SegmentIntersectsBox(a, b, box) {
			t.Fatalf("sample found hit but predicate says miss: %v %v %v", a, b, box)
		}
	}
}
