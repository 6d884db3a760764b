package convert

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
	"st4ml/internal/tempo"
)

type pev = instance.Event[geom.Point, instance.Unit, int64]
type ptraj = instance.Trajectory[instance.Unit, int64]

func testCtx() *engine.Context { return engine.New(engine.Config{Slots: 4}) }

func randomEvents(rng *rand.Rand, n int) []pev {
	out := make([]pev, n)
	for i := range out {
		out[i] = instance.NewEvent(
			geom.Pt(rng.Float64()*100, rng.Float64()*100),
			tempo.Instant(rng.Int63n(86400)),
			instance.Unit{}, int64(i))
	}
	return out
}

func randomTrajs(rng *rand.Rand, n int) []ptraj {
	out := make([]ptraj, n)
	for i := range out {
		m := 2 + rng.Intn(8)
		entries := make([]instance.Entry[geom.Point, instance.Unit], m)
		x, y := rng.Float64()*100, rng.Float64()*100
		t := rng.Int63n(80000)
		for j := range entries {
			entries[j] = instance.Entry[geom.Point, instance.Unit]{
				Spatial:  geom.Pt(x, y),
				Temporal: tempo.Instant(t),
			}
			x += rng.NormFloat64() * 2
			y += rng.NormFloat64() * 2
			t += 15 + rng.Int63n(30)
		}
		out[i] = instance.NewTrajectory(entries, int64(i))
	}
	return out
}

// countsOfTS extracts per-slot counts from the merged output of an
// EventToTimeSeries count conversion.
func mergeCounts[S geom.Geometry](parts []instance.TimeSeries[int64, instance.Unit]) []int64 {
	if len(parts) == 0 {
		return nil
	}
	out := make([]int64, parts[0].Len())
	for _, ts := range parts {
		for i, e := range ts.Entries {
			out[i] += e.Value
		}
	}
	return out
}

func countAgg[T any](in []T) int64 { return int64(len(in)) }

func TestEventToTimeSeriesMethodsAgree(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(1))
	events := randomEvents(rng, 2000)
	r := engine.Parallelize(ctx, events, 6)
	tgt := TimeGridTarget(instance.TimeGrid{Window: tempo.New(0, 86399), NT: 24})
	var results [][]int64
	for _, m := range []Method{Naive, Regular, RTree} {
		got := EventToTimeSeries(r, tgt, m, countAgg[pev]).Collect()
		results = append(results, mergeCounts[geom.MBR](got))
	}
	if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[0], results[2]) {
		t.Fatalf("methods disagree:\nnaive   %v\nregular %v\nrtree   %v",
			results[0], results[1], results[2])
	}
	var total int64
	for _, c := range results[0] {
		total += c
	}
	if total != 2000 {
		t.Errorf("instant events should land in exactly one slot each: %d", total)
	}
}

func TestEventToSpatialMapMethodsAgree(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(2))
	events := randomEvents(rng, 2000)
	r := engine.Parallelize(ctx, events, 6)
	tgt := SpatialGridTarget(instance.SpatialGrid{Extent: geom.Box(0, 0, 100, 100), NX: 10, NY: 10})
	var results [][]int64
	for _, m := range []Method{Naive, Regular, RTree} {
		parts := EventToSpatialMap(r, tgt, m, countAgg[pev]).Collect()
		counts := make([]int64, parts[0].Len())
		for _, sm := range parts {
			for i, e := range sm.Entries {
				counts[i] += e.Value
			}
		}
		results = append(results, counts)
	}
	if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[0], results[2]) {
		t.Fatal("spatial map methods disagree")
	}
}

func TestEventToSpatialMapIrregularPolygons(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(3))
	events := randomEvents(rng, 1000)
	r := engine.Parallelize(ctx, events, 4)
	// Irregular cells: two overlapping districts and one far away.
	cells := []*geom.Polygon{
		geom.Box(0, 0, 60, 60).ToPolygon(),
		geom.Box(40, 40, 100, 100).ToPolygon(),
		geom.Box(500, 500, 600, 600).ToPolygon(),
	}
	tgt := CellsTarget(cells)
	var results [][]int64
	for _, m := range []Method{Naive, RTree} {
		parts := EventToSpatialMap(r, tgt, m, countAgg[pev]).Collect()
		counts := make([]int64, 3)
		for _, sm := range parts {
			for i, e := range sm.Entries {
				counts[i] += e.Value
			}
		}
		results = append(results, counts)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("naive %v != rtree %v", results[0], results[1])
	}
	if results[0][2] != 0 {
		t.Errorf("far cell should be empty: %v", results[0])
	}
	// Overlap region counts into both districts.
	brute := make([]int64, 3)
	for _, e := range events {
		for i, c := range cells {
			if c.ContainsPoint(e.Entry.Spatial) {
				brute[i]++
			}
		}
	}
	if !reflect.DeepEqual(results[0], brute) {
		t.Fatalf("got %v, brute %v", results[0], brute)
	}
}

func TestEventToRasterMethodsAgree(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(4))
	events := randomEvents(rng, 1500)
	r := engine.Parallelize(ctx, events, 6)
	tgt := RasterGridTarget(instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: geom.Box(0, 0, 100, 100), NX: 5, NY: 5},
		Time:  instance.TimeGrid{Window: tempo.New(0, 86399), NT: 4},
	})
	var results [][]int64
	for _, m := range []Method{Naive, Regular, RTree} {
		parts := EventToRaster(r, tgt, m, countAgg[pev]).Collect()
		counts := make([]int64, parts[0].Len())
		for _, ra := range parts {
			for i, e := range ra.Entries {
				counts[i] += e.Value
			}
		}
		results = append(results, counts)
	}
	if !reflect.DeepEqual(results[0], results[1]) || !reflect.DeepEqual(results[0], results[2]) {
		t.Fatal("raster methods disagree")
	}
}

func TestTrajToCollectiveMethodsAgree(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(5))
	trajs := randomTrajs(rng, 300)
	r := engine.Parallelize(ctx, trajs, 4)

	tsTgt := TimeGridTarget(instance.TimeGrid{Window: tempo.New(0, 86399), NT: 12})
	smTgt := SpatialGridTarget(instance.SpatialGrid{Extent: geom.Box(-20, -20, 120, 120), NX: 7, NY: 7})
	raTgt := RasterGridTarget(instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: geom.Box(-20, -20, 120, 120), NX: 4, NY: 4},
		Time:  instance.TimeGrid{Window: tempo.New(0, 86399), NT: 3},
	})

	sum := func(parts [][]int64) []int64 {
		out := make([]int64, len(parts[0]))
		for _, p := range parts {
			for i, v := range p {
				out[i] += v
			}
		}
		return out
	}
	tsCounts := func(m Method) []int64 {
		var all [][]int64
		for _, ts := range TrajToTimeSeries(r, tsTgt, m, countAgg[ptraj]).Collect() {
			row := make([]int64, ts.Len())
			for i, e := range ts.Entries {
				row[i] = e.Value
			}
			all = append(all, row)
		}
		return sum(all)
	}
	smCounts := func(m Method) []int64 {
		var all [][]int64
		for _, sm := range TrajToSpatialMap(r, smTgt, m, countAgg[ptraj]).Collect() {
			row := make([]int64, sm.Len())
			for i, e := range sm.Entries {
				row[i] = e.Value
			}
			all = append(all, row)
		}
		return sum(all)
	}
	raCounts := func(m Method) []int64 {
		var all [][]int64
		for _, ra := range TrajToRaster(r, raTgt, m, countAgg[ptraj]).Collect() {
			row := make([]int64, ra.Len())
			for i, e := range ra.Entries {
				row[i] = e.Value
			}
			all = append(all, row)
		}
		return sum(all)
	}

	for name, f := range map[string]func(Method) []int64{
		"ts": tsCounts, "sm": smCounts, "raster": raCounts,
	} {
		naive := f(Naive)
		regular := f(Regular)
		rtree := f(RTree)
		if !reflect.DeepEqual(naive, regular) {
			t.Errorf("%s: naive != regular\n%v\n%v", name, naive, regular)
		}
		if !reflect.DeepEqual(naive, rtree) {
			t.Errorf("%s: naive != rtree\n%v\n%v", name, naive, rtree)
		}
	}
}

// TestBorderTouchingSegmentsMethodsAgree allocates trajectories whose
// vertices sit on cell borders computed the way the grid computes its cells,
// on seeded irregular extents. A segment ending on a border touches the
// neighbour cell, so the arithmetic candidates must not drop it: Auto ≡
// RTree ≡ Naive on spatial maps and rasters.
func TestBorderTouchingSegmentsMethodsAgree(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 40; trial++ {
		x0, y0 := rng.Float64()*200-100, rng.Float64()*200-100
		space := instance.SpatialGrid{
			Extent: geom.Box(x0, y0, x0+0.1+rng.Float64()*50, y0+0.1+rng.Float64()*50),
			NX:     1 + rng.Intn(9), NY: 1 + rng.Intn(9),
		}
		vertex := func() geom.Point {
			c := space.Cell(rng.Intn(space.NX+1), rng.Intn(space.NY+1))
			return geom.Pt(c.MinX, c.MinY)
		}
		trajs := make([]ptraj, 60)
		for i := range trajs {
			entries := make([]instance.Entry[geom.Point, instance.Unit], 1+rng.Intn(3))
			for j := range entries {
				entries[j] = instance.Entry[geom.Point, instance.Unit]{
					Spatial: vertex(), Temporal: tempo.Instant(rng.Int63n(1000)),
				}
			}
			trajs[i] = instance.NewTrajectory(entries, int64(i))
		}
		r := engine.Parallelize(ctx, trajs, 3)
		smTgt := SpatialGridTarget(space)
		raTgt := RasterGridTarget(instance.RasterGrid{
			Space: space, Time: instance.TimeGrid{Window: tempo.New(0, 999), NT: 3},
		})
		counts := func(m Method) [][]int64 {
			sm := make([]int64, space.NumCells())
			for _, p := range TrajToSpatialMap(r, smTgt, m, countAgg[ptraj]).Collect() {
				for i, e := range p.Entries {
					sm[i] += e.Value
				}
			}
			ra := make([]int64, len(raTgt.Cells))
			for _, p := range TrajToRaster(r, raTgt, m, countAgg[ptraj]).Collect() {
				for i, e := range p.Entries {
					ra[i] += e.Value
				}
			}
			return [][]int64{sm, ra}
		}
		naive := counts(Naive)
		for _, m := range []Method{Auto, RTree} {
			if got := counts(m); !reflect.DeepEqual(got, naive) {
				t.Fatalf("trial %d, grid %+v: method %d counts %v, naive %v", trial, space, m, got, naive)
			}
		}
	}
}

func TestTrajSpatialExactness(t *testing.T) {
	// A diagonal trajectory must not count into grid cells its MBR covers
	// but its segments miss.
	ctx := testCtx()
	entries := []instance.Entry[geom.Point, instance.Unit]{
		{Spatial: geom.Pt(0.5, 0.5), Temporal: tempo.Instant(0)},
		{Spatial: geom.Pt(9.5, 9.5), Temporal: tempo.Instant(100)},
	}
	tr := instance.NewTrajectory(entries, int64(1))
	r := engine.Parallelize(ctx, []ptraj{tr}, 1)
	tgt := SpatialGridTarget(instance.SpatialGrid{Extent: geom.Box(0, 0, 10, 10), NX: 2, NY: 2})
	parts := TrajToSpatialMap(r, tgt, Auto, countAgg[ptraj]).Collect()
	counts := make([]int64, 4)
	for _, sm := range parts {
		for i, e := range sm.Entries {
			counts[i] += e.Value
		}
	}
	// Cells 0 (SW) and 3 (NE) hit; the diagonal touches (5,5), the shared
	// corner of all four cells, so 1 and 2 may legitimately register a
	// touch. At minimum the diagonal cells must count.
	if counts[0] != 1 || counts[3] != 1 {
		t.Errorf("diagonal cells missed: %v", counts)
	}
}

func TestTrajectoriesEventsRoundTrip(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(6))
	trajs := randomTrajs(rng, 100)
	r := engine.Parallelize(ctx, trajs, 4)
	events := TrajectoriesToEvents(r)
	var totalPoints int64
	for _, tr := range trajs {
		totalPoints += int64(tr.Len())
	}
	if got := events.Count(); got != totalPoints {
		t.Fatalf("events = %d, want %d", got, totalPoints)
	}
	back := EventsToTrajectories(events, codec.Int64, instance.UnitC, 8)
	got := back.Collect()
	if len(got) != len(trajs) {
		t.Fatalf("round trip trajectories = %d, want %d", len(got), len(trajs))
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Data < got[j].Data })
	for i, tr := range got {
		orig := trajs[tr.Data]
		if tr.Len() != orig.Len() {
			t.Fatalf("traj %d has %d points, want %d", i, tr.Len(), orig.Len())
		}
		for j := range tr.Entries {
			if tr.Entries[j].Temporal != orig.Entries[j].Temporal {
				t.Fatalf("traj %d entry %d time mismatch", i, j)
			}
		}
	}
}

func TestCollectiveFlattening(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(7))
	events := randomEvents(rng, 500)
	r := engine.Parallelize(ctx, events, 4)
	tgt := SpatialGridTarget(instance.SpatialGrid{Extent: geom.Box(0, 0, 100, 100), NX: 4, NY: 4})
	// Collect events per cell, then flatten back out.
	sm := EventToSpatialMap(r, tgt, Auto, func(in []pev) []pev { return in })
	back := SpatialMapToValues(sm)
	if got := back.Count(); got != 500 {
		t.Errorf("flattened = %d, want 500", got)
	}
}

func TestRasterCollapses(t *testing.T) {
	ctx := testCtx()
	g := instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: geom.Box(0, 0, 2, 1), NX: 2, NY: 1},
		Time:  instance.TimeGrid{Window: tempo.New(0, 19), NT: 2},
	}
	cells, slots := g.Build()
	// Values: cell index itself for easy checks.
	values := []int64{1, 2, 10, 20}
	ra := instance.NewRaster(cells, slots, values, instance.Unit{})
	r := engine.Parallelize(ctx, []instance.Raster[geom.MBR, int64, instance.Unit]{ra}, 1)

	add := func(a, b int64) int64 { return a + b }
	ts := RasterToTimeSeries(r, add).Collect()[0]
	if ts.Len() != 2 || ts.Entries[0].Value != 3 || ts.Entries[1].Value != 30 {
		t.Errorf("RasterToTimeSeries = %+v", ts.Entries)
	}
	sm := RasterToSpatialMap(r, add).Collect()[0]
	if sm.Len() != 2 || sm.Entries[0].Value != 11 || sm.Entries[1].Value != 22 {
		t.Errorf("RasterToSpatialMap = %+v", sm.Entries)
	}
}

func TestSpatialMapTimeSeriesToRaster(t *testing.T) {
	ctx := testCtx()
	sm := instance.NewSpatialMap(
		[]geom.MBR{geom.Box(0, 0, 1, 1), geom.Box(1, 0, 2, 1)},
		[]int64{5, 7}, instance.Unit{})
	rsm := engine.Parallelize(ctx, []instance.SpatialMap[geom.MBR, int64, instance.Unit]{sm}, 1)
	ra := SpatialMapToRaster(rsm, tempo.New(0, 99)).Collect()[0]
	if ra.Len() != 2 || ra.Entries[0].Temporal != tempo.New(0, 99) {
		t.Errorf("SpatialMapToRaster = %+v", ra.Entries)
	}

	ts := instance.NewTimeSeries(tempo.New(0, 99).Split(2), []int64{1, 2}, geom.Box(0, 0, 5, 5), instance.Unit{})
	rts := engine.Parallelize(ctx, []instance.TimeSeries[int64, instance.Unit]{ts}, 1)
	ra2 := TimeSeriesToRaster(rts, geom.Box(0, 0, 5, 5)).Collect()[0]
	if ra2.Len() != 2 || ra2.Entries[1].Spatial != geom.Box(0, 0, 5, 5) {
		t.Errorf("TimeSeriesToRaster = %+v", ra2.Entries)
	}
}

func TestEmptyInputConversions(t *testing.T) {
	ctx := testCtx()
	r := engine.Parallelize(ctx, []pev{}, 3)
	tgt := TimeGridTarget(instance.TimeGrid{Window: tempo.New(0, 99), NT: 4})
	parts := EventToTimeSeries(r, tgt, Auto, countAgg[pev]).Collect()
	if len(parts) != 3 {
		t.Fatalf("partial instances = %d", len(parts))
	}
	for _, ts := range parts {
		for _, e := range ts.Entries {
			if e.Value != 0 {
				t.Error("empty input should produce zero counts")
			}
		}
	}
}

func TestNaiveMatchesBruteForceEventTS(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(8))
	events := randomEvents(rng, 800)
	r := engine.Parallelize(ctx, events, 4)
	slots := tempo.New(0, 86399).Split(7) // irregular-ish split counts
	tgt := SlotsTarget(slots)
	parts := EventToTimeSeries(r, tgt, Naive, countAgg[pev]).Collect()
	got := mergeCounts[geom.MBR](parts)
	want := make([]int64, len(slots))
	for _, e := range events {
		for i, s := range slots {
			if s.Intersects(e.Entry.Temporal) {
				want[i]++
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
