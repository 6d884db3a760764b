package geom

import (
	"math/rand"
	"strings"
	"testing"
)

func TestWKTPointRoundTrip(t *testing.T) {
	p := Pt(-8.618643, 41.141412)
	s := MarshalWKT(p)
	if s != "POINT (-8.618643 41.141412)" {
		t.Errorf("MarshalWKT = %q", s)
	}
	g, err := ParseWKT(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := g.(Point); !ok || !got.Equal(p) {
		t.Errorf("round trip = %v", g)
	}
}

func TestWKTLineStringRoundTrip(t *testing.T) {
	l := NewLineString([]Point{{0, 0}, {1.5, -2}, {3, 4}})
	g, err := ParseWKT(MarshalWKT(l))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := g.(*LineString)
	if !ok || len(got.Points()) != 3 {
		t.Fatalf("round trip = %v", g)
	}
	for i := 0; i < 3; i++ {
		if !got.Point(i).Equal(l.Point(i)) {
			t.Errorf("point %d = %v", i, got.Point(i))
		}
	}
}

func TestWKTPolygonRoundTrip(t *testing.T) {
	pg := NewPolygon(
		[]Point{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
		[]Point{{4, 4}, {6, 4}, {6, 6}, {4, 6}},
	)
	s := MarshalWKT(pg)
	if !strings.Contains(s, "POLYGON ((") || !strings.Contains(s, "), (") {
		t.Errorf("polygon WKT = %q", s)
	}
	g, err := ParseWKT(s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := g.(*Polygon)
	if !ok || got.NumHoles() != 1 {
		t.Fatalf("round trip = %v", g)
	}
	if got.Area() != pg.Area() {
		t.Errorf("area = %g, want %g", got.Area(), pg.Area())
	}
}

func TestWKTMBRRendersAsPolygon(t *testing.T) {
	s := MarshalWKT(Box(0, 0, 1, 2))
	if !strings.HasPrefix(s, "POLYGON") {
		t.Errorf("MBR WKT = %q", s)
	}
}

func TestParseWKTCaseAndWhitespace(t *testing.T) {
	g, err := ParseWKT("  point ( 1   2 ) ")
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := g.(Point); !ok || !p.Equal(Pt(1, 2)) {
		t.Errorf("parsed = %v", g)
	}
}

func TestParseWKTErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (0 0, 5)",
		"POINT 1 2",
		"POINT (1)",
		"POINT (a b)",
		"LINESTRING ()",
		"POLYGON ((0 0, 1 0))",     // too few vertices
		"POLYGON ((0 0, 1 0, 1 1)", // unbalanced
		"LINESTRING (1 2, 3)",
	}
	for _, s := range bad {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("ParseWKT(%q) should error", s)
		}
	}
}

func TestWKTRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(10)
		pts := make([]Point, n)
		for j := range pts {
			pts[j] = Pt(rng.Float64()*360-180, rng.Float64()*180-90)
		}
		l := NewLineString(pts)
		g, err := ParseWKT(MarshalWKT(l))
		if err != nil {
			t.Fatal(err)
		}
		got := g.(*LineString)
		if len(got.Points()) != n {
			t.Fatalf("lost points: %d", len(got.Points()))
		}
		for j := range pts {
			if !got.Point(j).Equal(pts[j]) {
				t.Fatalf("point %d mismatch", j)
			}
		}
	}
}
