package instance

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

func TestEventBasics(t *testing.T) {
	e := NewEvent(geom.Pt(1, 2), tempo.Instant(100), "value", "id-7")
	if e.Extent() != geom.Box(1, 2, 1, 2) {
		t.Errorf("Extent = %v", e.Extent())
	}
	if e.Duration() != tempo.Instant(100) {
		t.Errorf("Duration = %v", e.Duration())
	}
	if !e.Intersects(geom.Box(0, 0, 5, 5), tempo.New(50, 150)) {
		t.Error("should intersect covering window")
	}
	if e.Intersects(geom.Box(0, 0, 5, 5), tempo.New(200, 300)) {
		t.Error("should miss disjoint time")
	}
	if e.Intersects(geom.Box(5, 5, 9, 9), tempo.New(50, 150)) {
		t.Error("should miss disjoint space")
	}
}

func TestMapEventData(t *testing.T) {
	e := NewEvent(geom.Pt(1, 2), tempo.Instant(100), 5, "raw")
	mapped := MapEventData(e, func(s string) int { return len(s) })
	if mapped.Data != 3 {
		t.Errorf("Data = %d", mapped.Data)
	}
	if mapped.Entry != e.Entry {
		t.Error("entry should be unchanged")
	}
}

func trajEntries(pts []geom.Point, times []int64) []Entry[geom.Point, Unit] {
	out := make([]Entry[geom.Point, Unit], len(pts))
	for i := range pts {
		out[i] = Entry[geom.Point, Unit]{Spatial: pts[i], Temporal: tempo.Instant(times[i])}
	}
	return out
}

func TestTrajectorySortsEntries(t *testing.T) {
	entries := trajEntries(
		[]geom.Point{geom.Pt(2, 0), geom.Pt(0, 0), geom.Pt(1, 0)},
		[]int64{200, 0, 100})
	tr := NewTrajectory(entries, "t1")
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 1; i < tr.Len(); i++ {
		if tr.Entries[i].Temporal.Start < tr.Entries[i-1].Temporal.Start {
			t.Fatal("entries not sorted by time")
		}
	}
	if tr.Entries[0].Spatial != geom.Pt(0, 0) {
		t.Errorf("first point = %v", tr.Entries[0].Spatial)
	}
}

func TestTrajectoryGeometry(t *testing.T) {
	// Two points ~111 km apart on the equator, 3600 s apart.
	tr := NewTrajectory(trajEntries(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)},
		[]int64{0, 3600}), Unit{})
	if got := tr.Duration(); got != tempo.New(0, 3600) {
		t.Errorf("Duration = %v", got)
	}
	if got := tr.Extent(); got != geom.Box(0, 0, 1, 0) {
		t.Errorf("Extent = %v", got)
	}
	lm := tr.LengthMeters()
	if lm < 110e3 || lm > 113e3 {
		t.Errorf("LengthMeters = %g", lm)
	}
	speed := tr.AvgSpeedMps()
	if math.Abs(speed-lm/3600) > 1e-9 {
		t.Errorf("AvgSpeedMps = %g", speed)
	}
	speeds := tr.SegmentSpeedsMps()
	if len(speeds) != 1 || math.Abs(speeds[0]-speed) > 1e-9 {
		t.Errorf("SegmentSpeedsMps = %v", speeds)
	}
}

func TestTrajectoryIntersectsExactSegments(t *testing.T) {
	// Diagonal trajectory; query box in the empty corner of its MBR.
	tr := NewTrajectory(trajEntries(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(10, 10)},
		[]int64{0, 100}), Unit{})
	if tr.Intersects(geom.Box(8, 0, 10, 2), tempo.New(0, 100)) {
		t.Error("corner box should miss the diagonal")
	}
	if !tr.Intersects(geom.Box(4, 4, 6, 6), tempo.New(0, 100)) {
		t.Error("central box should hit the diagonal")
	}
	if tr.Intersects(geom.Box(4, 4, 6, 6), tempo.New(200, 300)) {
		t.Error("disjoint time should miss")
	}
	single := NewTrajectory(trajEntries([]geom.Point{geom.Pt(5, 5)}, []int64{50}), Unit{})
	if !single.Intersects(geom.Box(0, 0, 10, 10), tempo.New(0, 100)) {
		t.Error("single-point trajectory should hit")
	}
}

func TestTrajectoryZeroDtSpeed(t *testing.T) {
	tr := NewTrajectory(trajEntries(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)},
		[]int64{100, 100}), Unit{})
	speeds := tr.SegmentSpeedsMps()
	if len(speeds) != 1 || speeds[0] != 0 {
		t.Errorf("zero-dt speed = %v", speeds)
	}
	if tr.AvgSpeedMps() != 0 {
		t.Error("zero-duration avg speed should be 0")
	}
}

func TestTimeSeriesConstruction(t *testing.T) {
	slots := tempo.New(0, 99).Split(4)
	values := []int{1, 2, 3, 4}
	ts := NewTimeSeries(slots, values, geom.Box(0, 0, 10, 10), "series")
	if ts.Len() != 4 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if got := ts.Duration(); got != tempo.New(0, 99) {
		t.Errorf("Duration = %v", got)
	}
	if got := ts.Extent(); got != geom.Box(0, 0, 10, 10) {
		t.Errorf("Extent = %v", got)
	}
}

func TestTimeSeriesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTimeSeries(tempo.New(0, 9).Split(2), []int{1}, geom.EmptyMBR(), Unit{})
}

func TestSpatialMapConstruction(t *testing.T) {
	cells := []*geom.Polygon{
		geom.Rect(geom.Box(0, 0, 1, 1)),
		geom.Rect(geom.Box(1, 0, 2, 1)),
	}
	sm := NewSpatialMap(cells, []int{10, 20}, Unit{})
	if sm.Len() != 2 {
		t.Fatalf("Len = %d", sm.Len())
	}
	if got := sm.Extent(); got != geom.Box(0, 0, 2, 1) {
		t.Errorf("Extent = %v", got)
	}
	if !sm.Duration().IsEmpty() {
		t.Error("purely spatial map should have empty duration")
	}
}

func TestRasterConstruction(t *testing.T) {
	g := RasterGrid{
		Space: SpatialGrid{Extent: geom.Box(0, 0, 2, 2), NX: 2, NY: 2},
		Time:  TimeGrid{Window: tempo.New(0, 199), NT: 2},
	}
	cells, slots := g.Build()
	values := make([]int, len(cells))
	ra := NewRaster(cells, slots, values, Unit{})
	if ra.Len() != 8 {
		t.Fatalf("Len = %d", ra.Len())
	}
	if got := ra.Extent(); got != geom.Box(0, 0, 2, 2) {
		t.Errorf("Extent = %v", got)
	}
	if got := ra.Duration(); got != tempo.New(0, 199) {
		t.Errorf("Duration = %v", got)
	}
}

func TestSpatialGridCellRangeAndLocate(t *testing.T) {
	g := SpatialGrid{Extent: geom.Box(0, 0, 10, 10), NX: 5, NY: 5}
	ix0, ix1, iy0, iy1, ok := g.CellRange(geom.Box(2.5, 2.5, 4.5, 6.5))
	if !ok || ix0 != 1 || ix1 != 2 || iy0 != 1 || iy1 != 3 {
		t.Errorf("CellRange = %d %d %d %d %v", ix0, ix1, iy0, iy1, ok)
	}
	if _, _, _, _, ok := g.CellRange(geom.Box(20, 20, 30, 30)); ok {
		t.Error("outside range should report !ok")
	}
	if got := g.Locate(geom.Pt(3, 7)); got != 3*5+1 {
		t.Errorf("Locate = %d", got)
	}
	if got := g.Locate(geom.Pt(10, 10)); got != 24 {
		t.Errorf("Locate at max corner = %d", got)
	}
	if got := g.Locate(geom.Pt(-1, 5)); got != -1 {
		t.Errorf("Locate outside = %d", got)
	}
}

// TestSpatialGridCellRangeCoversCells checks CellRange against brute force
// over Cells(): every cell a box meets must lie in the returned range.
// Most box faces sit on cell borders computed the way Cell computes them,
// where truncating a fractional cell position can land one cell short.
func TestSpatialGridCellRangeCoversCells(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 3000; trial++ {
		x0, y0 := rng.Float64()*200-100, rng.Float64()*200-100
		g := SpatialGrid{
			Extent: geom.Box(x0, y0, x0+0.1+rng.Float64()*50, y0+0.1+rng.Float64()*50),
			NX:     1 + rng.Intn(12), NY: 1 + rng.Intn(12),
		}
		face := func(border func(k int) float64, lo, hi float64, n int) float64 {
			if rng.Intn(4) == 0 {
				return lo + rng.Float64()*(hi-lo)
			}
			return border(rng.Intn(n + 1))
		}
		xb := func(k int) float64 { return g.Cell(k, 0).MinX }
		yb := func(k int) float64 { return g.Cell(0, k).MinY }
		e := g.Extent
		b := geom.Box(face(xb, e.MinX, e.MaxX, g.NX), face(yb, e.MinY, e.MaxY, g.NY),
			face(xb, e.MinX, e.MaxX, g.NX), face(yb, e.MinY, e.MaxY, g.NY))
		ix0, ix1, iy0, iy1, ok := g.CellRange(b)
		for i, c := range g.Cells() {
			ix, iy := i%g.NX, i/g.NX
			if c.Intersects(b) && (!ok || ix < ix0 || ix > ix1 || iy < iy0 || iy > iy1) {
				t.Fatalf("trial %d: grid %+v box %+v meets cell (%d,%d) %+v outside CellRange %d..%d × %d..%d (ok %v)",
					trial, g, b, ix, iy, c, ix0, ix1, iy0, iy1, ok)
			}
		}
	}
}

func TestSpatialGridCellsTile(t *testing.T) {
	g := SpatialGrid{Extent: geom.Box(0, 0, 9, 6), NX: 3, NY: 2}
	cells := g.Cells()
	if len(cells) != 6 {
		t.Fatalf("cells = %d", len(cells))
	}
	var area float64
	for _, c := range cells {
		area += c.Area()
	}
	if math.Abs(area-54) > 1e-9 {
		t.Errorf("total cell area = %g, want 54", area)
	}
	// Row-major layout: cell 1 is (ix=1, iy=0).
	if cells[1] != g.Cell(1, 0) {
		t.Error("row-major order violated")
	}
}

func TestTimeGridSlotRange(t *testing.T) {
	g := TimeGrid{Window: tempo.New(0, 99), NT: 10}
	lo, hi, ok := g.SlotRange(tempo.New(15, 34))
	if !ok || lo != 1 || hi != 3 {
		t.Errorf("SlotRange = %d %d %v", lo, hi, ok)
	}
	if _, _, ok := g.SlotRange(tempo.New(200, 300)); ok {
		t.Error("outside window should report !ok")
	}
	// Every slot returned actually intersects.
	slots := g.Slots()
	q := tempo.New(15, 34)
	for i := lo; i <= hi; i++ {
		if !slots[i].Intersects(q) {
			t.Errorf("slot %d %v does not intersect %v", i, slots[i], q)
		}
	}
}

func TestRasterGridIndexRoundTrip(t *testing.T) {
	g := RasterGrid{
		Space: SpatialGrid{Extent: geom.Box(0, 0, 4, 4), NX: 4, NY: 2},
		Time:  TimeGrid{Window: tempo.New(0, 99), NT: 3},
	}
	for it := 0; it < 3; it++ {
		for iy := 0; iy < 2; iy++ {
			for ix := 0; ix < 4; ix++ {
				i := g.Index(ix, iy, it)
				cell, slot := g.CellAt(i)
				if cell != g.Space.Cell(ix, iy) {
					t.Fatalf("CellAt(%d) spatial mismatch", i)
				}
				if slot != g.Time.Slots()[it] {
					t.Fatalf("CellAt(%d) temporal mismatch", i)
				}
			}
		}
	}
	cells, slots := g.Build()
	if len(cells) != g.NumCells() || len(slots) != g.NumCells() {
		t.Errorf("Build sizes = %d %d", len(cells), len(slots))
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	c := EventCodec(codec.PointC, codec.String, codec.Int64)
	e := NewEvent(geom.Pt(-8.61, 41.14), tempo.New(100, 200), "pickup", int64(42))
	got, err := codec.Unmarshal(c, codec.Marshal(c, e))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Errorf("round trip: %+v != %+v", got, e)
	}
}

func TestTrajectoryCodecRoundTrip(t *testing.T) {
	c := TrajectoryCodec(codec.Float64, codec.String)
	entries := []Entry[geom.Point, float64]{
		{Spatial: geom.Pt(1, 2), Temporal: tempo.Instant(10), Value: 1.5},
		{Spatial: geom.Pt(3, 4), Temporal: tempo.Instant(20), Value: 2.5},
	}
	tr := NewTrajectory(entries, "trip-9")
	got, err := codec.Unmarshal(c, codec.Marshal(c, tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch")
	}
}

func TestCollectiveCodecsRoundTrip(t *testing.T) {
	tsc := TimeSeriesCodec(codec.SliceOf(codec.Int64), codec.String)
	ts := NewTimeSeries(
		tempo.New(0, 99).Split(2),
		[][]int64{{1, 2}, {}},
		geom.Box(0, 0, 1, 1), "ts")
	gotTs, err := codec.Unmarshal(tsc, codec.Marshal(tsc, ts))
	if err != nil {
		t.Fatal(err)
	}
	if gotTs.Len() != 2 || gotTs.Data != "ts" || len(gotTs.Entries[0].Value) != 2 {
		t.Errorf("time series round trip: %+v", gotTs)
	}

	smc := SpatialMapCodec(codec.PolygonC, codec.Int, UnitC)
	sm := NewSpatialMap(
		[]*geom.Polygon{geom.Rect(geom.Box(0, 0, 1, 1))},
		[]int{7}, Unit{})
	gotSm, err := codec.Unmarshal(smc, codec.Marshal(smc, sm))
	if err != nil {
		t.Fatal(err)
	}
	if gotSm.Len() != 1 || gotSm.Entries[0].Value != 7 {
		t.Errorf("spatial map round trip: %+v", gotSm)
	}
	if gotSm.Entries[0].Spatial.MBR() != geom.Box(0, 0, 1, 1) {
		t.Error("polygon cell lost")
	}

	rc := RasterCodec(codec.MBRC, codec.Float64, UnitC)
	g := RasterGrid{
		Space: SpatialGrid{Extent: geom.Box(0, 0, 2, 2), NX: 2, NY: 1},
		Time:  TimeGrid{Window: tempo.New(0, 9), NT: 2},
	}
	cells, slots := g.Build()
	ra := NewRaster(cells, slots, []float64{1, 2, 3, 4}, Unit{})
	gotRa, err := codec.Unmarshal(rc, codec.Marshal(rc, ra))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRa.Entries, ra.Entries) {
		t.Error("raster round trip mismatch")
	}
}

func TestEntryBox(t *testing.T) {
	e := Entry[geom.Point, Unit]{Spatial: geom.Pt(1, 2), Temporal: tempo.New(10, 20)}
	b := e.Box()
	if b.Spatial() != geom.Box(1, 2, 1, 2) || b.Temporal() != tempo.New(10, 20) {
		t.Errorf("Box = %+v", b)
	}
}
