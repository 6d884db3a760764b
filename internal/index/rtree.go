package index

import (
	"math"
	"sort"
)

// defaultMaxEntries is the node fan-out used when callers pass 0.
const defaultMaxEntries = 16

// Item pairs a payload with its index box.
type Item[T any] struct {
	Box  Box
	Data T
}

// RTree is an in-memory R-tree over 3-d boxes (1-d and 2-d uses embed into
// degenerate 3-d boxes, see Box2). It supports STR bulk loading —
// the mode ST4ML uses for per-partition on-the-fly indexes — and Guttman
// quadratic-split insertion for incremental maintenance.
//
// RTree is not safe for concurrent mutation; concurrent readers are fine.
type RTree[T any] struct {
	root       *rnode[T]
	maxEntries int
	minEntries int
	size       int
}

type rnode[T any] struct {
	leaf    bool
	entries []rentry[T]
}

type rentry[T any] struct {
	box   Box
	child *rnode[T] // nil at leaves
	item  T         // valid at leaves
}

// NewRTree returns an empty tree with the given node fan-out (0 means the
// default of 16).
func NewRTree[T any](maxEntries int) *RTree[T] {
	if maxEntries <= 0 {
		maxEntries = defaultMaxEntries
	}
	if maxEntries < 4 {
		maxEntries = 4
	}
	return &RTree[T]{
		root:       &rnode[T]{leaf: true},
		maxEntries: maxEntries,
		minEntries: maxEntries * 2 / 5,
	}
}

// BulkLoadSTR builds a tree from items using sort-tile-recursive packing
// (Leutenegger et al.), tiling axis 2 (time), then axis 0, then axis 1.
// STR packing yields near-optimal space utilization and is the fast path
// for the throwaway per-partition indexes of the selection stage.
func BulkLoadSTR[T any](items []Item[T], maxEntries int) *RTree[T] {
	t := NewRTree[T](maxEntries)
	if len(items) == 0 {
		return t
	}
	// Copy before packing: strPack sorts in place and callers keep their
	// slice order.
	own := make([]Item[T], len(items))
	copy(own, items)
	leaves := strPack(own, t.maxEntries)
	nodes := make([]rentry[T], len(leaves))
	for i, leafItems := range leaves {
		n := &rnode[T]{leaf: true, entries: make([]rentry[T], len(leafItems))}
		box := EmptyBox()
		for j, it := range leafItems {
			n.entries[j] = rentry[T]{box: it.Box, item: it.Data}
			box = box.Union(it.Box)
		}
		nodes[i] = rentry[T]{box: box, child: n}
	}
	// Pack upper levels until a single root remains.
	for len(nodes) > 1 {
		groups := strPackEntries(nodes, t.maxEntries)
		next := make([]rentry[T], len(groups))
		for i, g := range groups {
			n := &rnode[T]{entries: g}
			box := EmptyBox()
			for _, e := range g {
				box = box.Union(e.box)
			}
			next[i] = rentry[T]{box: box, child: n}
		}
		nodes = next
	}
	t.root = nodes[0].child
	t.size = len(items)
	return t
}

// strPack tiles items into groups of at most cap each using 3-level STR.
func strPack[T any](items []Item[T], capacity int) [][]Item[T] {
	n := len(items)
	numLeaves := (n + capacity - 1) / capacity
	// Slab counts: s2 slabs on time, then s0 on x, remainder on y.
	s := math.Cbrt(float64(numLeaves))
	slabs2 := int(math.Ceil(s))
	if slabs2 < 1 {
		slabs2 = 1
	}
	sort.Slice(items, func(i, j int) bool {
		return items[i].Box.Center()[2] < items[j].Box.Center()[2]
	})
	out := make([][]Item[T], 0, numLeaves)
	per2 := (n + slabs2 - 1) / slabs2
	for i := 0; i < n; i += per2 {
		end := i + per2
		if end > n {
			end = n
		}
		slab := items[i:end]
		slabLeaves := (len(slab) + capacity - 1) / capacity
		slabs0 := int(math.Ceil(math.Sqrt(float64(slabLeaves))))
		if slabs0 < 1 {
			slabs0 = 1
		}
		sort.Slice(slab, func(a, b int) bool {
			return slab[a].Box.Center()[0] < slab[b].Box.Center()[0]
		})
		per0 := (len(slab) + slabs0 - 1) / slabs0
		for j := 0; j < len(slab); j += per0 {
			jend := j + per0
			if jend > len(slab) {
				jend = len(slab)
			}
			run := slab[j:jend]
			sort.Slice(run, func(a, b int) bool {
				return run[a].Box.Center()[1] < run[b].Box.Center()[1]
			})
			for k := 0; k < len(run); k += capacity {
				kend := k + capacity
				if kend > len(run) {
					kend = len(run)
				}
				out = append(out, run[k:kend])
			}
		}
	}
	return out
}

// strPackEntries groups node entries for upper tree levels.
func strPackEntries[T any](entries []rentry[T], capacity int) [][]rentry[T] {
	items := make([]Item[*rnode[T]], len(entries))
	for i, e := range entries {
		items[i] = Item[*rnode[T]]{Box: e.box, Data: e.child}
	}
	groups := strPack(items, capacity)
	out := make([][]rentry[T], len(groups))
	for i, g := range groups {
		es := make([]rentry[T], len(g))
		for j, it := range g {
			es[j] = rentry[T]{box: it.Box, child: it.Data}
		}
		out[i] = es
	}
	return out
}

// Len returns the number of stored items.
func (t *RTree[T]) Len() int { return t.size }

// Bounds returns the box covering all stored items (empty when Len is 0).
func (t *RTree[T]) Bounds() Box {
	b := EmptyBox()
	for _, e := range t.root.entries {
		b = b.Union(e.box)
	}
	return b
}

// Height returns the number of levels (1 for a leaf-only tree).
func (t *RTree[T]) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].child {
		h++
	}
	return h
}

// Insert adds an item with Guttman quadratic splitting.
func (t *RTree[T]) Insert(box Box, item T) {
	leaf := t.chooseLeaf(box)
	leaf.node.entries = append(leaf.node.entries, rentry[T]{box: box, item: item})
	t.size++
	t.adjustUp(leaf, box)
}

type pathNode[T any] struct {
	node   *rnode[T]
	parent *pathNode[T]
	// entryIdx is the index of node within parent.node.entries.
	entryIdx int
}

// chooseLeaf descends to the leaf whose box needs the least enlargement,
// recording the path for the bottom-up adjustment pass.
func (t *RTree[T]) chooseLeaf(box Box) *pathNode[T] {
	cur := &pathNode[T]{node: t.root}
	for !cur.node.leaf {
		bestIdx, bestEnl, bestMargin := -1, math.Inf(1), math.Inf(1)
		for i, e := range cur.node.entries {
			enl := e.box.Union(box).Margin() - e.box.Margin()
			if enl < bestEnl || (enl == bestEnl && e.box.Margin() < bestMargin) {
				bestIdx, bestEnl, bestMargin = i, enl, e.box.Margin()
			}
		}
		cur = &pathNode[T]{
			node:     cur.node.entries[bestIdx].child,
			parent:   cur,
			entryIdx: bestIdx,
		}
	}
	return cur
}

// adjustUp grows ancestor boxes and splits overflowing nodes bottom-up.
func (t *RTree[T]) adjustUp(path *pathNode[T], box Box) {
	for p := path; p != nil; p = p.parent {
		if p.parent != nil {
			pe := &p.parent.node.entries[p.entryIdx]
			pe.box = pe.box.Union(box)
		}
		if len(p.node.entries) > t.maxEntries {
			t.splitNode(p)
		}
	}
}

// splitNode performs a quadratic split of p.node in place, attaching the new
// sibling to the parent (creating a new root when p is the root).
func (t *RTree[T]) splitNode(p *pathNode[T]) {
	n := p.node
	entries := n.entries
	// Quadratic pick-seeds: the pair wasting the most space.
	seedA, seedB, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].box.Union(entries[j].box).Margin() -
				entries[i].box.Margin() - entries[j].box.Margin()
			if d > worst {
				seedA, seedB, worst = i, j, d
			}
		}
	}
	groupA := []rentry[T]{entries[seedA]}
	groupB := []rentry[T]{entries[seedB]}
	boxA, boxB := entries[seedA].box, entries[seedB].box
	rest := make([]rentry[T], 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for _, e := range rest {
		switch {
		case len(groupA) >= t.maxEntries-t.minEntries+1:
			groupB = append(groupB, e)
			boxB = boxB.Union(e.box)
		case len(groupB) >= t.maxEntries-t.minEntries+1:
			groupA = append(groupA, e)
			boxA = boxA.Union(e.box)
		default:
			enlA := boxA.Union(e.box).Margin() - boxA.Margin()
			enlB := boxB.Union(e.box).Margin() - boxB.Margin()
			if enlA <= enlB {
				groupA = append(groupA, e)
				boxA = boxA.Union(e.box)
			} else {
				groupB = append(groupB, e)
				boxB = boxB.Union(e.box)
			}
		}
	}
	n.entries = groupA
	sibling := &rnode[T]{leaf: n.leaf, entries: groupB}
	if p.parent == nil {
		newRoot := &rnode[T]{entries: []rentry[T]{
			{box: boxA, child: n},
			{box: boxB, child: sibling},
		}}
		t.root = newRoot
		return
	}
	p.parent.node.entries[p.entryIdx].box = boxA
	p.parent.node.entries = append(p.parent.node.entries,
		rentry[T]{box: boxB, child: sibling})
}

// Search returns all items whose box intersects query.
func (t *RTree[T]) Search(query Box) []T {
	var out []T
	t.SearchFunc(query, func(item T, _ Box) bool {
		out = append(out, item)
		return true
	})
	return out
}

// SearchFunc visits every item whose box intersects query. Returning false
// from fn stops the traversal early.
func (t *RTree[T]) SearchFunc(query Box, fn func(item T, box Box) bool) {
	searchNode(t.root, query, fn)
}

func searchNode[T any](n *rnode[T], query Box, fn func(T, Box) bool) bool {
	for _, e := range n.entries {
		if !e.box.Intersects(query) {
			continue
		}
		if n.leaf {
			if !fn(e.item, e.box) {
				return false
			}
		} else if !searchNode(e.child, query, fn) {
			return false
		}
	}
	return true
}

// Count returns the number of items whose box intersects query without
// materializing them.
func (t *RTree[T]) Count(query Box) int {
	c := 0
	t.SearchFunc(query, func(T, Box) bool { c++; return true })
	return c
}
