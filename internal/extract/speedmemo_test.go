package extract

import (
	"math"
	"math/rand"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
	"st4ml/internal/tempo"
)

// The speed-memo wall: SmSpeed, RasterSpeed and TsSpeed compute each
// trajectory's speed once per collective instance, and must equal, bit for
// bit, a reference that calls AvgSpeedMps for every placement.

// perPlacementAcc is the reference cell aggregate: one AvgSpeedMps call per
// placement, added in placement order.
func perPlacementAcc(trs []utraj) MeanAcc {
	var a MeanAcc
	for _, tr := range trs {
		a = a.Add(tr.AvgSpeedMps())
	}
	return a
}

// memoCells builds nInst collective instances' worth of cell contents over
// nCells cells. The placements cover a trajectory in many cells, two
// trajectories that are different-length sub-slices of one entries array,
// empty and one-point trajectories, and zero-duration trajectories.
func memoCells(rng *rand.Rand, nInst, nCells int) [][][]utraj {
	walk := func(n int, dt int64) []instance.Entry[geom.Point, instance.Unit] {
		entries := make([]instance.Entry[geom.Point, instance.Unit], n)
		x, y, t := -8.6+rng.Float64()*0.1, 41.1+rng.Float64()*0.1, rng.Int63n(86400)
		for i := range entries {
			entries[i] = instance.Entry[geom.Point, instance.Unit]{Spatial: geom.Pt(x, y), Temporal: tempo.Instant(t)}
			x += rng.NormFloat64() * 1e-3
			y += rng.NormFloat64() * 1e-3
			t += dt
		}
		return entries
	}
	out := make([][][]utraj, nInst)
	for k := range out {
		shared := walk(30, 15)
		pool := []utraj{
			{Entries: shared[:12], Data: 1},        // prefix of shared
			{Entries: shared[:30], Data: 2},        // same first entry, longer
			{Entries: shared[:2], Data: 3},         // same first entry, shortest
			{Entries: shared[5:20], Data: 4},       // interior sub-slice
			{Entries: nil, Data: 5},                // empty
			{Entries: shared[:0], Data: 6},         // empty view of a live array
			{Entries: walk(1, 15), Data: 7},        // one point
			{Entries: walk(6, 0), Data: 8},         // zero duration: speed 0
			{Entries: walk(40, 15), Data: 9},       // ordinary
			{Entries: walk(2, 1), Data: 10},        // short and fast
			{Entries: shared[12:13], Data: 11},     // one point inside shared
			{Entries: shared[29:30], Data: 12},     // one point at shared's end
			{Entries: walk(20, 15)[:17], Data: 13}, // capacity beyond length
		}
		cells := make([][]utraj, nCells)
		for c := range cells {
			// The first trajectory lands in every cell; the rest at random,
			// some twice in one cell.
			cells[c] = append(cells[c], pool[0])
			for i := rng.Intn(2 * len(pool)); i > 0; i-- {
				cells[c] = append(cells[c], pool[rng.Intn(len(pool))])
			}
		}
		out[k] = cells
	}
	return out
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestSpeedMemoMatchesPerPlacement(t *testing.T) {
	ctx := testCtx()
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		const nCells = 24
		insts := memoCells(rng, 1+trial, nCells)
		grid := instance.SpatialGrid{Extent: geom.Box(0, 0, 6, 4), NX: 6, NY: 4}
		tg := instance.TimeGrid{Window: tempo.New(0, 86399), NT: nCells}
		cells := grid.Cells()
		rasterCells, rasterSlots := instance.RasterGrid{Space: instance.SpatialGrid{Extent: grid.Extent, NX: 3, NY: 2},
			Time: instance.TimeGrid{Window: tg.Window, NT: 4}}.Build()

		var sms []instance.SpatialMap[geom.MBR, []utraj, instance.Unit]
		var ras []instance.Raster[geom.MBR, []utraj, instance.Unit]
		var tss []instance.TimeSeries[[]utraj, instance.Unit]
		for _, v := range insts {
			sms = append(sms, instance.NewSpatialMap(cells, v, instance.Unit{}))
			ras = append(ras, instance.NewRaster(rasterCells, rasterSlots, v, instance.Unit{}))
			tss = append(tss, instance.NewTimeSeries(tg.Slots(), v, geom.EmptyMBR(), instance.Unit{}))
		}
		smRDD := engine.Parallelize(ctx, sms, len(sms))
		raRDD := engine.Parallelize(ctx, ras, len(ras))
		tsRDD := engine.Parallelize(ctx, tss, len(tss))

		for _, unit := range []SpeedUnit{MPS, KMH} {
			gotSM, ok := SmSpeed(smRDD, unit)
			wantSM, ok2 := CollectAndMergeSpatialMap(MapSpatialMapValue(smRDD, perPlacementAcc), MeanAcc.Merge)
			if !ok || !ok2 {
				t.Fatalf("trial %d: SmSpeed ok=%v, reference ok=%v", trial, ok, ok2)
			}
			for c, e := range wantSM.Entries {
				if want := unit.Convert(e.Value.Mean()); !sameFloat(gotSM.Entries[c].Value, want) {
					t.Fatalf("trial %d, SmSpeed cell %d: %v, per placement %v", trial, c, gotSM.Entries[c].Value, want)
				}
			}

			gotRA, ok := RasterSpeed(raRDD, unit)
			wantRA, ok2 := CollectAndMergeRaster(MapRasterValue(raRDD, perPlacementAcc), MeanAcc.Merge)
			if !ok || !ok2 {
				t.Fatalf("trial %d: RasterSpeed ok=%v, reference ok=%v", trial, ok, ok2)
			}
			for c, e := range wantRA.Entries {
				got := gotRA.Entries[c].Value
				if want := unit.Convert(e.Value.Mean()); got.Count != e.Value.N || !sameFloat(got.Mean, want) {
					t.Fatalf("trial %d, RasterSpeed cell %d: %+v, per placement {%d %v}", trial, c, got, e.Value.N, want)
				}
			}

			gotTS, ok := TsSpeed(tsRDD, unit)
			wantTS, ok2 := CollectAndMergeTimeSeries(MapTimeSeriesValue(tsRDD, perPlacementAcc), MeanAcc.Merge)
			if !ok || !ok2 {
				t.Fatalf("trial %d: TsSpeed ok=%v, reference ok=%v", trial, ok, ok2)
			}
			for c, e := range wantTS.Entries {
				if want := unit.Convert(e.Value.Mean()); !sameFloat(gotTS.Entries[c].Value, want) {
					t.Fatalf("trial %d, TsSpeed slot %d: %v, per placement %v", trial, c, gotTS.Entries[c].Value, want)
				}
			}
		}
	}
}

// TestSpeedMemoKeepsSubSlicesApart pins the memo key: a trajectory and a
// shorter prefix of its entries share their first entry, and each cell
// must still see its own speed.
func TestSpeedMemoKeepsSubSlicesApart(t *testing.T) {
	entries := make([]instance.Entry[geom.Point, instance.Unit], 3)
	for i := range entries {
		entries[i] = instance.Entry[geom.Point, instance.Unit]{
			Spatial: geom.Pt(0, 0.01*float64(i*i)), Temporal: tempo.Instant(int64(10 * i)),
		}
	}
	long, short := utraj{Entries: entries}, utraj{Entries: entries[:2]}
	if long.AvgSpeedMps() == short.AvgSpeedMps() {
		t.Fatal("fixture: the prefix must have a different speed")
	}
	cells := []instance.Entry[geom.MBR, []utraj]{{Value: []utraj{short}}, {Value: []utraj{long}}}
	accs := speedAccs(cells)
	if !sameFloat(accs[0].Value.Mean(), short.AvgSpeedMps()) || !sameFloat(accs[1].Value.Mean(), long.AvgSpeedMps()) {
		t.Fatalf("speeds %v, %v; want %v, %v", accs[0].Value.Mean(), accs[1].Value.Mean(),
			short.AvgSpeedMps(), long.AvgSpeedMps())
	}
	if z := (utraj{Entries: entries[:1]}).AvgSpeedMps(); z != 0 {
		t.Fatalf("one-point speed %v, want 0", z)
	}
}
