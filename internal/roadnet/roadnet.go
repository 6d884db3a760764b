// Package roadnet provides the road-network substrate that ST4ML's
// map-matching conversion and the road-flow case study (§6) run on: a
// directed road graph with spatially indexed segments, Dijkstra shortest
// paths, and a synthetic city generator standing in for the proprietary
// Hangzhou network (see DESIGN.md substitutions).
package roadnet

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"st4ml/internal/geom"
	"st4ml/internal/index"
)

// NodeID identifies a graph node (intersection).
type NodeID int32

// EdgeID identifies a directed road segment.
type EdgeID int32

// NoEdge marks an absent segment reference.
const NoEdge EdgeID = -1

// Node is a road intersection.
type Node struct {
	ID  NodeID
	Loc geom.Point
}

// Edge is a directed straight road segment between two nodes.
type Edge struct {
	ID      EdgeID
	From    NodeID
	To      NodeID
	LengthM float64
}

// Graph is an immutable directed road network. All query methods are safe
// for concurrent use.
type Graph struct {
	nodes   []Node
	edges   []Edge
	out     [][]EdgeID
	segTree *index.RTree[EdgeID]
	extent  geom.MBR
}

// NewGraph builds a graph from nodes (whose IDs must equal their slice
// positions) and edges (likewise). Edge lengths are computed from node
// locations with haversine.
func NewGraph(nodes []Node, edges []Edge) (*Graph, error) {
	for i, n := range nodes {
		if int(n.ID) != i {
			return nil, fmt.Errorf("roadnet: node %d has ID %d", i, n.ID)
		}
	}
	out := make([][]EdgeID, len(nodes))
	items := make([]index.Item[EdgeID], len(edges))
	extent := geom.EmptyMBR()
	for i := range edges {
		e := &edges[i]
		if int(e.ID) != i {
			return nil, fmt.Errorf("roadnet: edge %d has ID %d", i, e.ID)
		}
		if int(e.From) >= len(nodes) || int(e.To) >= len(nodes) || e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("roadnet: edge %d references missing node", i)
		}
		a, b := nodes[e.From].Loc, nodes[e.To].Loc
		e.LengthM = geom.HaversineMeters(a, b)
		out[e.From] = append(out[e.From], e.ID)
		items[i] = index.Item[EdgeID]{
			Box:  index.Box2(geom.Box(a.X, a.Y, b.X, b.Y)),
			Data: e.ID,
		}
		extent = extent.Union(geom.Box(a.X, a.Y, b.X, b.Y))
	}
	return &Graph{
		nodes:   nodes,
		edges:   edges,
		out:     out,
		segTree: index.BulkLoadSTR(items, 16),
		extent:  extent,
	}, nil
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed segment count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given id.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Extent returns the spatial bounding box of the network.
func (g *Graph) Extent() geom.MBR { return g.extent }

// EdgeEndpoints returns the segment's endpoint locations.
func (g *Graph) EdgeEndpoints(id EdgeID) (geom.Point, geom.Point) {
	e := g.edges[id]
	return g.nodes[e.From].Loc, g.nodes[e.To].Loc
}

// EdgesNear returns the segments within radiusM metres of p (by segment
// geometry, via the R-tree with a degree-buffered query box).
func (g *Graph) EdgesNear(p geom.Point, radiusM float64) []EdgeID {
	dLat := geom.MetersToDegreesLat(radiusM)
	dLon := geom.MetersToDegreesLon(radiusM, p.Y)
	q := index.Box2(geom.MBR{
		MinX: p.X - dLon, MinY: p.Y - dLat,
		MaxX: p.X + dLon, MaxY: p.Y + dLat,
	})
	var out []EdgeID
	g.segTree.SearchFunc(q, func(id EdgeID, _ index.Box) bool {
		if g.DistanceToEdgeM(p, id) <= radiusM {
			out = append(out, id)
		}
		return true
	})
	return out
}

// NearestEdge returns the closest segment to p, its projection point, and
// the metre distance. ok is false for an empty graph.
func (g *Graph) NearestEdge(p geom.Point) (id EdgeID, proj geom.Point, distM float64, ok bool) {
	// Expand the search radius until a candidate appears.
	for radius := 100.0; radius <= 1e7; radius *= 4 {
		best := NoEdge
		bestDist := math.Inf(1)
		var bestProj geom.Point
		for _, cand := range g.EdgesNear(p, radius) {
			pr := g.ProjectOnEdge(p, cand)
			d := geom.HaversineMeters(p, pr)
			if d < bestDist {
				best, bestDist, bestProj = cand, d, pr
			}
		}
		if best != NoEdge {
			return best, bestProj, bestDist, true
		}
	}
	return NoEdge, geom.Point{}, 0, false
}

// ProjectOnEdge returns the closest point to p on the segment.
func (g *Graph) ProjectOnEdge(p geom.Point, id EdgeID) geom.Point {
	a, b := g.EdgeEndpoints(id)
	proj, _ := geom.ProjectPointOnSegment(p, a, b)
	return proj
}

// DistanceToEdgeM returns the metre distance from p to the segment.
func (g *Graph) DistanceToEdgeM(p geom.Point, id EdgeID) float64 {
	return geom.HaversineMeters(p, g.ProjectOnEdge(p, id))
}

// AlongEdgeM returns the metre distance from the segment's From endpoint to
// the projection of p onto the segment.
func (g *Graph) AlongEdgeM(p geom.Point, id EdgeID) float64 {
	a, b := g.EdgeEndpoints(id)
	proj, _ := geom.ProjectPointOnSegment(p, a, b)
	return geom.HaversineMeters(a, proj)
}

// ShortestPath runs Dijkstra from node src, stopping once every node in
// targets is settled or distances exceed maxDistM. It returns the settled
// metre distances and predecessor edges for path reconstruction.
func (g *Graph) ShortestPath(src NodeID, targets map[NodeID]bool, maxDistM float64) (dist map[NodeID]float64, prevEdge map[NodeID]EdgeID) {
	dist = map[NodeID]float64{src: 0}
	prevEdge = map[NodeID]EdgeID{}
	settled := map[NodeID]bool{}
	remaining := len(targets)
	if targets[src] {
		remaining--
	}
	pq := &nodeHeap{{node: src, dist: 0}}
	for pq.Len() > 0 && remaining > 0 {
		cur := heap.Pop(pq).(nodeDist)
		if settled[cur.node] {
			continue
		}
		settled[cur.node] = true
		if targets[cur.node] && cur.node != src {
			remaining--
		}
		if cur.dist > maxDistM {
			break
		}
		for _, eid := range g.out[cur.node] {
			e := g.edges[eid]
			nd := cur.dist + e.LengthM
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				prevEdge[e.To] = eid
				heap.Push(pq, nodeDist{node: e.To, dist: nd})
			}
		}
	}
	return dist, prevEdge
}

// PathEdges reconstructs the edge sequence src→dst from a predecessor map
// returned by ShortestPath. ok is false when dst was not reached.
func (g *Graph) PathEdges(src, dst NodeID, prevEdge map[NodeID]EdgeID) ([]EdgeID, bool) {
	if src == dst {
		return nil, true
	}
	var rev []EdgeID
	cur := dst
	for cur != src {
		eid, ok := prevEdge[cur]
		if !ok {
			return nil, false
		}
		rev = append(rev, eid)
		cur = g.edges[eid].From
		if len(rev) > len(g.edges) {
			return nil, false // cycle guard
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

type nodeDist struct {
	node NodeID
	dist float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// GenerateGrid builds a jittered nx × ny grid city network anchored at
// origin with the given block spacing in metres. Every adjacent node pair
// gets edges in both directions; dropFrac randomly removes that fraction of
// bidirectional street pairs (keeping the network connected is the caller's
// concern at high drop rates; the default generator keeps dropFrac small).
func GenerateGrid(nx, ny int, spacingM float64, origin geom.Point, dropFrac float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	dLat := geom.MetersToDegreesLat(spacingM)
	dLon := geom.MetersToDegreesLon(spacingM, origin.Y)
	nodes := make([]Node, 0, nx*ny)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			jx := (rng.Float64() - 0.5) * 0.2 * dLon
			jy := (rng.Float64() - 0.5) * 0.2 * dLat
			nodes = append(nodes, Node{
				ID:  NodeID(iy*nx + ix),
				Loc: geom.Pt(origin.X+float64(ix)*dLon+jx, origin.Y+float64(iy)*dLat+jy),
			})
		}
	}
	var edges []Edge
	addPair := func(a, b NodeID) {
		if rng.Float64() < dropFrac {
			return
		}
		edges = append(edges,
			Edge{ID: EdgeID(len(edges)), From: a, To: b},
			Edge{ID: EdgeID(len(edges) + 1), From: b, To: a})
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			id := NodeID(iy*nx + ix)
			if ix+1 < nx {
				addPair(id, id+1)
			}
			if iy+1 < ny {
				addPair(id, id+NodeID(nx))
			}
		}
	}
	g, err := NewGraph(nodes, edges)
	if err != nil {
		panic(err) // generator invariants guarantee validity
	}
	return g
}
