package roadnet

import (
	"math"
	"testing"

	"st4ml/internal/geom"
)

// lineGraph builds a straight 3-node east-west road: 0 -> 1 -> 2 and back.
func lineGraph(t *testing.T) *Graph {
	t.Helper()
	nodes := []Node{
		{ID: 0, Loc: geom.Pt(0, 0)},
		{ID: 1, Loc: geom.Pt(0.01, 0)}, // ~1.11 km
		{ID: 2, Loc: geom.Pt(0.02, 0)},
	}
	edges := []Edge{
		{ID: 0, From: 0, To: 1},
		{ID: 1, From: 1, To: 2},
		{ID: 2, From: 1, To: 0},
		{ID: 3, From: 2, To: 1},
	}
	g, err := NewGraph(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph([]Node{{ID: 5}}, nil); err == nil {
		t.Error("bad node ID should error")
	}
	nodes := []Node{{ID: 0, Loc: geom.Pt(0, 0)}}
	if _, err := NewGraph(nodes, []Edge{{ID: 0, From: 0, To: 3}}); err == nil {
		t.Error("dangling edge should error")
	}
	if _, err := NewGraph(nodes, []Edge{{ID: 7, From: 0, To: 0}}); err == nil {
		t.Error("bad edge ID should error")
	}
}

func TestEdgeLengths(t *testing.T) {
	g := lineGraph(t)
	l := g.Edge(0).LengthM
	if l < 1100 || l > 1130 {
		t.Errorf("edge length = %g m, want ~1113", l)
	}
}

func TestEdgesNearAndNearestEdge(t *testing.T) {
	g := lineGraph(t)
	// A point 100 m north of the middle of edge 0.
	p := geom.Pt(0.005, geom.MetersToDegreesLat(100))
	near := g.EdgesNear(p, 200)
	found := map[EdgeID]bool{}
	for _, e := range near {
		found[e] = true
	}
	if !found[0] || !found[2] {
		t.Errorf("EdgesNear = %v, want to include 0 and 2", near)
	}
	if found[1] || found[3] {
		t.Errorf("EdgesNear should exclude the far segment: %v", near)
	}
	id, proj, dist, ok := g.NearestEdge(p)
	if !ok {
		t.Fatal("NearestEdge found nothing")
	}
	if id != 0 && id != 2 {
		t.Errorf("NearestEdge = %d", id)
	}
	if math.Abs(dist-100) > 2 {
		t.Errorf("distance = %g, want ~100", dist)
	}
	if math.Abs(proj.Y) > 1e-9 {
		t.Errorf("projection should lie on the road: %v", proj)
	}
}

func TestShortestPathAndReconstruction(t *testing.T) {
	g := lineGraph(t)
	dist, prev := g.ShortestPath(0, map[NodeID]bool{2: true}, 1e9)
	d, ok := dist[2]
	if !ok {
		t.Fatal("node 2 unreachable")
	}
	want := g.Edge(0).LengthM + g.Edge(1).LengthM
	if math.Abs(d-want) > 1e-6 {
		t.Errorf("distance = %g, want %g", d, want)
	}
	path, ok := g.PathEdges(0, 2, prev)
	if !ok || len(path) != 2 || path[0] != 0 || path[1] != 1 {
		t.Errorf("path = %v", path)
	}
	// Trivial path.
	if p, ok := g.PathEdges(1, 1, prev); !ok || len(p) != 0 {
		t.Errorf("self path = %v ok=%v", p, ok)
	}
}

func TestShortestPathRespectsDirection(t *testing.T) {
	// One-way graph: 0 -> 1 only.
	nodes := []Node{
		{ID: 0, Loc: geom.Pt(0, 0)},
		{ID: 1, Loc: geom.Pt(0.01, 0)},
	}
	edges := []Edge{{ID: 0, From: 0, To: 1}}
	g, err := NewGraph(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	dist, _ := g.ShortestPath(1, map[NodeID]bool{0: true}, 1e9)
	if _, ok := dist[0]; ok {
		t.Error("one-way edge should not be traversable backwards")
	}
}

func TestShortestPathMaxDistCutoff(t *testing.T) {
	g := lineGraph(t)
	dist, _ := g.ShortestPath(0, map[NodeID]bool{2: true}, 500)
	if _, ok := dist[2]; ok {
		t.Error("500 m budget should not reach node 2 (~2.2 km)")
	}
}

func TestGenerateGrid(t *testing.T) {
	g := GenerateGrid(5, 4, 500, geom.Pt(120, 30), 0, 1)
	if g.NumNodes() != 20 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	// Full grid: horizontal pairs 4*4, vertical pairs 5*3, ×2 directions.
	if want := (4*4 + 5*3) * 2; g.NumEdges() != want {
		t.Errorf("edges = %d, want %d", g.NumEdges(), want)
	}
	// Spacing sanity: every edge ~500 m (jitter ≤ ~20%).
	for i := 0; i < g.NumEdges(); i++ {
		l := g.Edge(EdgeID(i)).LengthM
		if l < 300 || l > 700 {
			t.Fatalf("edge %d length %g m out of range", i, l)
		}
	}
	// All corners reachable from node 0 on a full grid.
	target := NodeID(g.NumNodes() - 1)
	dist, _ := g.ShortestPath(0, map[NodeID]bool{target: true}, 1e9)
	if _, ok := dist[target]; !ok {
		t.Error("far corner unreachable on full grid")
	}
}

func TestGenerateGridDropsEdges(t *testing.T) {
	full := GenerateGrid(6, 6, 400, geom.Pt(0, 0), 0, 2)
	dropped := GenerateGrid(6, 6, 400, geom.Pt(0, 0), 0.3, 2)
	if dropped.NumEdges() >= full.NumEdges() {
		t.Errorf("dropFrac had no effect: %d vs %d", dropped.NumEdges(), full.NumEdges())
	}
}

func TestAlongEdgeM(t *testing.T) {
	g := lineGraph(t)
	// Midpoint of edge 0.
	mid := geom.Pt(0.005, 0)
	along := g.AlongEdgeM(mid, 0)
	if math.Abs(along-g.Edge(0).LengthM/2) > 1 {
		t.Errorf("along = %g, want half of %g", along, g.Edge(0).LengthM)
	}
	if got := g.AlongEdgeM(geom.Pt(-1, 0), 0); got != 0 {
		t.Errorf("before segment start: along = %g", got)
	}
}

func TestEdgeEndpoints(t *testing.T) {
	g := lineGraph(t)
	a, b := g.EdgeEndpoints(1)
	if a != geom.Pt(0.01, 0) || b != geom.Pt(0.02, 0) {
		t.Errorf("endpoints = %v, %v", a, b)
	}
}
