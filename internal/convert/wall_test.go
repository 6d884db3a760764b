package convert

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
	"st4ml/internal/tempo"
)

// The trajectory conversion wall: TrajToSpatialMap and TrajToRaster, under
// every allocation method, place exactly the trajectories the brute-force
// reference places, cell by cell, in input order. The reference tests
// every (trajectory, cell) pair with trajIntersectsCell; the conversions
// probe candidates segment by segment.

// trajIntersectsCell reports whether any trajectory segment passes through
// the cell geometry while overlapping the slot (an empty slot means
// time-unconstrained). Segment timing is the union of its endpoint
// intervals; a one-point trajectory is tested as its point.
func trajIntersectsCell[V, D any](tr instance.Trajectory[V, D], cell geom.Geometry, slot tempo.Duration) bool {
	timeOK := func(d tempo.Duration) bool {
		return slot.IsEmpty() || slot.Intersects(d)
	}
	if len(tr.Entries) == 1 {
		e := tr.Entries[0]
		return timeOK(e.Temporal) && geom.GeometriesIntersect(e.Spatial, cell)
	}
	for i := 1; i < len(tr.Entries); i++ {
		a, b := tr.Entries[i-1], tr.Entries[i]
		if !timeOK(a.Temporal.Union(b.Temporal)) {
			continue
		}
		if segmentIntersectsGeometry(a.Spatial, b.Spatial, cell) {
			return true
		}
	}
	return false
}

// bruteMembers lists, per cell, the ids of the trajectories that meet it,
// in input order. A nil slots slice leaves time unconstrained.
func bruteMembers[SC geom.Geometry](trajs []ptraj, cells []SC, slots []tempo.Duration) [][]int64 {
	out := make([][]int64, len(cells))
	for c, cell := range cells {
		slot := tempo.Empty()
		if slots != nil {
			slot = slots[c]
		}
		for _, tr := range trajs {
			if trajIntersectsCell(tr, cell, slot) {
				out[c] = append(out[c], tr.Data)
			}
		}
	}
	return out
}

func ids(in []ptraj) []int64 {
	var out []int64
	for _, tr := range in {
		out = append(out, tr.Data)
	}
	return out
}

// smMembers and rasterMembers join each cell's member lists across the
// partial collective instances, in partition order.
func smMembers[SC geom.Geometry](r *engine.RDD[ptraj], tgt SMTarget[SC], m Method) [][]int64 {
	out := make([][]int64, len(tgt.Cells))
	for _, sm := range TrajToSpatialMap(r, tgt, m, ids).Collect() {
		for c, e := range sm.Entries {
			out[c] = append(out[c], e.Value...)
		}
	}
	return out
}

func rasterMembers[SC geom.Geometry](r *engine.RDD[ptraj], tgt RasterTarget[SC], m Method) [][]int64 {
	out := make([][]int64, len(tgt.Cells))
	for _, ra := range TrajToRaster(r, tgt, m, ids).Collect() {
		for c, e := range ra.Entries {
			out[c] = append(out[c], e.Value...)
		}
	}
	return out
}

// wallExtent and wallWindow are the spine's scale: a Porto-sized extent
// and a three-day window whose length is not a multiple of 24 slots, so
// slots differ in length by one second.
var (
	wallExtent = geom.Box(-8.70, 41.10, -8.50, 41.25)
	wallWindow = tempo.New(1_356_998_400, 1_356_998_400+3*86400+16)
)

// postalAreas tiles the extent with n×n jittered quadrilaterals, the shape
// of poicount's postal-code areas.
func postalAreas(rng *rand.Rand, ext geom.MBR, n int) []*geom.Polygon {
	w, h := ext.Width()/float64(n), ext.Height()/float64(n)
	j := func() float64 { return (rng.Float64() - 0.5) * 0.2 * w }
	out := make([]*geom.Polygon, 0, n*n)
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			x0, y0 := ext.MinX+float64(ix)*w, ext.MinY+float64(iy)*h
			out = append(out, geom.NewPolygon([]geom.Point{
				{X: x0 + j(), Y: y0 + j()}, {X: x0 + w + j(), Y: y0 + j()},
				{X: x0 + w + j(), Y: y0 + h + j()}, {X: x0 + j(), Y: y0 + h + j()},
			}))
		}
	}
	return out
}

// wallLayout is one named, seeded set of trajectories.
type wallLayout struct {
	name  string
	trajs []ptraj
}

// wallLayouts builds the seeded trajectory layouts the wall runs, against
// the spatial grid g (whose borders and corners the layouts aim at) and
// the time grid tg (whose slot boundaries they aim at).
func wallLayouts(rng *rand.Rand, g instance.SpatialGrid, tg instance.TimeGrid) []wallLayout {
	slots := tg.Slots()
	cw, ch := g.Extent.Width()/float64(g.NX), g.Extent.Height()/float64(g.NY)
	randPt := func(ext geom.MBR) geom.Point {
		return geom.Pt(ext.MinX+rng.Float64()*ext.Width(), ext.MinY+rng.Float64()*ext.Height())
	}
	vertex := func() geom.Point {
		c := g.Cell(rng.Intn(g.NX+1), rng.Intn(g.NY+1))
		return geom.Pt(c.MinX, c.MinY)
	}
	// onBorder is a point on a cell border: a vertex slid along one axis.
	onBorder := func() geom.Point {
		p := vertex()
		if rng.Intn(2) == 0 {
			p.X += rng.Float64() * cw
		} else {
			p.Y += rng.Float64() * ch
		}
		return p
	}
	e := g.Extent
	corners := []geom.Point{{X: e.MinX, Y: e.MinY}, {X: e.MaxX, Y: e.MinY}, {X: e.MaxX, Y: e.MaxY}, {X: e.MinX, Y: e.MaxY}}
	randTime := func() int64 { return tg.Window.Start + rng.Int63n(tg.Window.End-tg.Window.Start+1) }
	build := func(n int, next func(i, j int) (geom.Point, tempo.Duration), length func() int) []ptraj {
		out := make([]ptraj, n)
		for i := range out {
			entries := make([]instance.Entry[geom.Point, instance.Unit], length())
			for j := range entries {
				p, d := next(i, j)
				entries[j] = instance.Entry[geom.Point, instance.Unit]{Spatial: p, Temporal: d}
			}
			out[i] = instance.NewTrajectory(entries, int64(i))
		}
		return out
	}
	walk := func(n int, start func() geom.Point, step float64) []ptraj {
		var cur geom.Point
		var t int64
		return build(n, func(_, j int) (geom.Point, tempo.Duration) {
			if j == 0 {
				cur, t = start(), randTime()
			} else {
				cur = geom.Pt(cur.X+rng.NormFloat64()*step*cw, cur.Y+rng.NormFloat64()*step*ch)
				t += 15
			}
			return cur, tempo.Instant(t)
		}, func() int { return 2 + rng.Intn(40) })
	}
	return []wallLayout{
		{"walks", walk(150, func() geom.Point { return randPt(e) }, 0.4)},
		{"borders", build(150, func(_, _ int) (geom.Point, tempo.Duration) {
			switch rng.Intn(4) {
			case 0:
				return vertex(), tempo.Instant(randTime())
			case 1:
				return corners[rng.Intn(4)], tempo.Instant(randTime())
			default:
				return onBorder(), tempo.Instant(randTime())
			}
		}, func() int { return 2 + rng.Intn(5) })},
		// One-point trajectories and zero-length segments: every point is
		// repeated, on borders, vertices or anywhere.
		{"degenerate", func() []ptraj {
			var p geom.Point
			var t int64
			return build(150, func(_, j int) (geom.Point, tempo.Duration) {
				if j%2 == 0 {
					switch rng.Intn(3) {
					case 0:
						p = vertex()
					case 1:
						p = onBorder()
					default:
						p = randPt(e)
					}
					t = randTime()
				}
				return p, tempo.Instant(t + int64(j%2)*rng.Int63n(2))
			}, func() int { return 1 + rng.Intn(4) })
		}()},
		// Every entry starts or ends exactly on a slot boundary, and some
		// entries are intervals spanning one.
		{"slot-edges", func() []ptraj {
			var cur geom.Point
			return build(150, func(_, j int) (geom.Point, tempo.Duration) {
				if j == 0 {
					cur = randPt(e)
				} else {
					cur = geom.Pt(cur.X+rng.NormFloat64()*0.5*cw, cur.Y+rng.NormFloat64()*0.5*ch)
				}
				s := slots[rng.Intn(len(slots))]
				switch rng.Intn(4) {
				case 0:
					return cur, tempo.Instant(s.Start)
				case 1:
					return cur, tempo.Instant(s.End)
				case 2:
					return cur, tempo.New(s.End, s.End+1)
				default:
					return cur, tempo.New(s.Start-1-rng.Int63n(3), s.Start)
				}
			}, func() int { return 1 + rng.Intn(6) })
		}()},
		// Wholly outside the grid in space; some also before the window.
		{"outside", func() []ptraj {
			away := geom.Box(e.MaxX+cw, e.MinY, e.MaxX+e.Width(), e.MaxY)
			return build(150, func(i, _ int) (geom.Point, tempo.Duration) {
				t := randTime()
				if i%2 == 0 {
					t = tg.Window.Start - 1 - rng.Int63n(86400)
				}
				return randPt(away), tempo.Instant(t)
			}, func() int { return 1 + rng.Intn(8) })
		}()},
		// Inside the extent but wholly before the window: outside every
		// raster, inside the spatial maps.
		{"before-window", func() []ptraj {
			return build(150, func(_, _ int) (geom.Point, tempo.Duration) {
				return randPt(e), tempo.Instant(tg.Window.Start - 1 - rng.Int63n(86400))
			}, func() int { return 1 + rng.Intn(8) })
		}()},
	}
}

// checkMembers compares a method's member lists against the reference.
func checkMembers(t *testing.T, what string, m Method, got, want [][]int64) {
	t.Helper()
	for c := range want {
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Fatalf("%s, method %v, cell %d: members %v, brute force %v", what, m, c, got[c], want[c])
		}
	}
}

func TestTrajConversionWall(t *testing.T) {
	ctx := testCtx()
	methods := []Method{Naive, Regular, RTree, Auto}
	rng := rand.New(rand.NewSource(33))

	speedGrid := instance.SpatialGrid{Extent: wallExtent, NX: 20, NY: 20}
	rasterGrid := instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: wallExtent, NX: 10, NY: 10},
		Time:  instance.TimeGrid{Window: wallWindow, NT: 24},
	}
	areas := postalAreas(rng, wallExtent, 6)
	areaTime := instance.TimeGrid{Window: wallWindow, NT: 4}

	for _, l := range wallLayouts(rng, rasterGrid.Space, rasterGrid.Time) {
		name, trajs := l.name, l.trajs
		r := engine.Parallelize(ctx, trajs, 3)

		// Point cells: grid vertices, this layout's trajectory vertices
		// and random points, all inside the extent.
		var points []geom.Point
		for i := 0; i < 40; i++ {
			c := speedGrid.Cell(rng.Intn(speedGrid.NX+1), rng.Intn(speedGrid.NY+1))
			points = append(points, geom.Pt(c.MinX, c.MinY))
			tr := trajs[rng.Intn(len(trajs))]
			if v := tr.Entries[rng.Intn(len(tr.Entries))].Spatial; wallExtent.ContainsPoint(v) {
				points = append(points, v)
			}
			points = append(points, geom.Pt(wallExtent.MinX+rng.Float64()*wallExtent.Width(),
				wallExtent.MinY+rng.Float64()*wallExtent.Height()))
		}

		// Irregular rasters: every area or point in every slot, time-major.
		var areaCells []*geom.Polygon
		var areaSlots, pointSlots []tempo.Duration
		var pointCells []geom.Point
		for _, s := range areaTime.Slots() {
			for _, a := range areas {
				areaCells = append(areaCells, a)
				areaSlots = append(areaSlots, s)
			}
			for _, p := range points {
				pointCells = append(pointCells, p)
				pointSlots = append(pointSlots, s)
			}
		}

		smGrid := SpatialGridTarget(speedGrid)
		smAreas := CellsTarget(areas)
		smPoints := CellsTarget(points)
		raGrid := RasterGridTarget(rasterGrid)
		raAreas := RasterCellsTarget(areaCells, areaSlots)
		raPoints := RasterCellsTarget(pointCells, pointSlots)
		wants := []struct {
			what string
			want [][]int64
			got  func(Method) [][]int64
		}{
			{"sm/grid 20x20", bruteMembers(trajs, smGrid.Cells, nil), func(m Method) [][]int64 { return smMembers(r, smGrid, m) }},
			{"sm/postal areas", bruteMembers(trajs, smAreas.Cells, nil), func(m Method) [][]int64 { return smMembers(r, smAreas, m) }},
			{"sm/points", bruteMembers(trajs, smPoints.Cells, nil), func(m Method) [][]int64 { return smMembers(r, smPoints, m) }},
			{"raster/grid 10x10x24", bruteMembers(trajs, raGrid.Cells, raGrid.Slots), func(m Method) [][]int64 { return rasterMembers(r, raGrid, m) }},
			{"raster/postal areas", bruteMembers(trajs, raAreas.Cells, raAreas.Slots), func(m Method) [][]int64 { return rasterMembers(r, raAreas, m) }},
			{"raster/points", bruteMembers(trajs, raPoints.Cells, raPoints.Slots), func(m Method) [][]int64 { return rasterMembers(r, raPoints, m) }},
		}
		for _, w := range wants {
			placed := 0
			for _, members := range w.want {
				placed += len(members)
			}
			outside := name == "outside" || (name == "before-window" && strings.HasPrefix(w.what, "raster"))
			if placed == 0 && !outside {
				t.Fatalf("%s/%s: the reference places nothing; the layout misses the target", name, w.what)
			}
			if placed != 0 && outside {
				t.Fatalf("%s/%s: the reference places %d trajectories outside the grid", name, w.what, placed)
			}
			for _, m := range methods {
				checkMembers(t, fmt.Sprintf("%s/%s", name, w.what), m, w.got(m), w.want)
			}
		}
	}
}
