package instance

import (
	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

// Regular structure specs. A structure is regular when its cells have equal
// size and densely tile the space (§4.2). For regular structures the cells
// intersecting a query extent follow from index arithmetic instead of
// iteration — the conversion fast path the paper describes.

// TimeGrid splits a window into NT equal consecutive slots.
type TimeGrid struct {
	Window tempo.Duration
	NT     int
}

// Slots materializes the slot intervals.
func (g TimeGrid) Slots() []tempo.Duration { return g.Window.Split(g.NT) }

// SlotRange returns the inclusive slot index range [lo, hi] whose slots may
// intersect d, or ok=false when d misses the window entirely.
func (g TimeGrid) SlotRange(d tempo.Duration) (lo, hi int, ok bool) {
	d = d.Intersection(g.Window)
	if d.IsEmpty() || g.NT <= 0 {
		return 0, 0, false
	}
	total := g.Window.End - g.Window.Start + 1
	lo = int((d.Start - g.Window.Start) * int64(g.NT) / total)
	hi = int((d.End - g.Window.Start) * int64(g.NT) / total)
	if lo < 0 {
		lo = 0
	}
	if hi >= g.NT {
		hi = g.NT - 1
	}
	return lo, hi, true
}

// SpatialGrid splits an extent into NX × NY equal rectangular cells, stored
// row-major: index = iy*NX + ix.
type SpatialGrid struct {
	Extent geom.MBR
	NX, NY int
}

// NumCells returns NX × NY.
func (g SpatialGrid) NumCells() int { return g.NX * g.NY }

// Cell returns the extent of cell (ix, iy).
func (g SpatialGrid) Cell(ix, iy int) geom.MBR {
	w := g.Extent.Width() / float64(g.NX)
	h := g.Extent.Height() / float64(g.NY)
	return geom.MBR{
		MinX: border(g.Extent.MinX, w, ix),
		MinY: border(g.Extent.MinY, h, iy),
		MaxX: border(g.Extent.MinX, w, ix+1),
		MaxY: border(g.Extent.MinY, h, iy+1),
	}
}

// border is the coordinate of the border before cell i along one axis. Cell
// and CellRange both go through it, so they agree bit for bit; the explicit
// conversion keeps the compiler from fusing the multiply-add differently at
// different call sites.
func border(org, w float64, i int) float64 { return org + float64(float64(i)*w) }

// Cells materializes all cell extents in row-major order.
func (g SpatialGrid) Cells() []geom.MBR {
	out := make([]geom.MBR, 0, g.NumCells())
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			out = append(out, g.Cell(ix, iy))
		}
	}
	return out
}

// Polygons materializes all cells as polygons (for APIs that require
// polygon-shaped cells).
func (g SpatialGrid) Polygons() []*geom.Polygon {
	cells := g.Cells()
	out := make([]*geom.Polygon, len(cells))
	for i, c := range cells {
		out[i] = c.ToPolygon()
	}
	return out
}

// CellRange returns the inclusive index ranges [ix0,ix1] × [iy0,iy1] of
// cells that may intersect box b, or ok=false when b misses every cell.
// This is the regular-structure index derivation of §4.2. The range may
// over-include (conversion exact-tests every candidate) but never drops a
// cell that Cells() says b meets, borders included.
func (g SpatialGrid) CellRange(b geom.MBR) (ix0, ix1, iy0, iy1 int, ok bool) {
	if b.IsEmpty() || g.NX <= 0 || g.NY <= 0 {
		return 0, 0, 0, 0, false
	}
	ix0, ix1, okx := cellSpan(g.Extent.MinX, g.Extent.Width()/float64(g.NX), b.MinX, b.MaxX, g.NX)
	iy0, iy1, oky := cellSpan(g.Extent.MinY, g.Extent.Height()/float64(g.NY), b.MinY, b.MaxY, g.NY)
	if !okx || !oky {
		return 0, 0, 0, 0, false
	}
	return ix0, ix1, iy0, iy1, true
}

// cellSpan returns the inclusive range of the n cells of width w from org
// along one axis whose closed extents may meet [lo, hi]. Truncating the
// fractional position can land one cell short when a face of the box sits
// on a border, so each end widens to the neighbour cell whose border,
// computed as Cell computes it, lies within the box. Cells are closed and
// share borders: a face on a border meets both cells.
func cellSpan(org, w, lo, hi float64, n int) (i0, i1 int, ok bool) {
	top := border(org, w, n)
	if hi < org || lo > top {
		return 0, 0, false
	}
	lo, hi = max(lo, org), min(hi, top)
	i0 = clampIdx(int((lo-org)/w), n)
	if i0 > 0 && border(org, w, i0) >= lo {
		i0--
	}
	i1 = clampIdx(int((hi-org)/w), n)
	if i1+1 < n && border(org, w, i1+1) <= hi {
		i1++
	}
	return i0, i1, true
}

// Locate returns the row-major index of the cell containing p, or -1 when p
// is outside the extent. Border points resolve to the lower-index cell.
func (g SpatialGrid) Locate(p geom.Point) int {
	if !g.Extent.ContainsPoint(p) {
		return -1
	}
	w := g.Extent.Width() / float64(g.NX)
	h := g.Extent.Height() / float64(g.NY)
	ix := clampIdx(int((p.X-g.Extent.MinX)/w), g.NX)
	iy := clampIdx(int((p.Y-g.Extent.MinY)/h), g.NY)
	return iy*g.NX + ix
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// RasterGrid is the product of a spatial grid and a time grid. Cell order
// is time-major: index = it*(NX*NY) + iy*NX + ix, matching the sort order
// (t_start, lon_min, lat_min) the paper prescribes for regular rasters.
type RasterGrid struct {
	Space SpatialGrid
	Time  TimeGrid
}

// NumCells returns NX × NY × NT.
func (g RasterGrid) NumCells() int { return g.Space.NumCells() * g.Time.NT }

// Index composes a cell index from per-dimension indices.
func (g RasterGrid) Index(ix, iy, it int) int {
	return it*g.Space.NumCells() + iy*g.Space.NX + ix
}

// CellAt returns the spatial extent and slot of cell index i.
func (g RasterGrid) CellAt(i int) (geom.MBR, tempo.Duration) {
	per := g.Space.NumCells()
	it := i / per
	rem := i % per
	iy := rem / g.Space.NX
	ix := rem % g.Space.NX
	slots := g.Time.Slots()
	return g.Space.Cell(ix, iy), slots[it]
}

// Build materializes parallel cell and slot arrays in index order.
func (g RasterGrid) Build() (cells []geom.MBR, slots []tempo.Duration) {
	space := g.Space.Cells()
	times := g.Time.Slots()
	cells = make([]geom.MBR, 0, g.NumCells())
	slots = make([]tempo.Duration, 0, g.NumCells())
	for _, t := range times {
		for _, c := range space {
			cells = append(cells, c)
			slots = append(slots, t)
		}
	}
	return cells, slots
}
