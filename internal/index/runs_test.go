package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

// runBoxes draws n boxes over [0,10)² × [0,100): points when point is
// set, else boxes up to a tenth of the domain per axis, the extent of a
// short trajectory. Z-clustered boxes are sorted along a 3-d Z curve of
// their centres, the order ingest and compaction store records in.
func runBoxes(n int, seed int64, point, clustered bool) []Box {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Box, n)
	for i := range out {
		x, y, t := rng.Float64()*10, rng.Float64()*10, rng.Int63n(100)
		b := BoxOfPoint(geom.Pt(x, y), t)
		if !point {
			b = Box3(geom.Box(x, y, x+rng.Float64(), y+rng.Float64()), tempo.New(t, t+rng.Int63n(10)))
		}
		out[i] = b
	}
	if clustered {
		curve := NewZCurve3D(geom.Box(0, 0, 11, 11), tempo.New(0, 110), 8, 7)
		key := func(b Box) uint64 {
			c := b.Center()
			return curve.Key(geom.Pt(c[0], c[1]), int64(c[2]))
		}
		sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	}
	return out
}

// oddBoxes are the boxes float edge cases produce: empty boxes (the box of
// an empty trajectory), NaN and infinite coordinates, and signed zeros.
func oddBoxes() []Box {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	return []Box{
		EmptyBox(),
		Box3(geom.EmptyMBR(), tempo.Empty()),
		{Min: [Dims]float64{nan, 1, 1}, Max: [Dims]float64{nan, 2, 2}},
		{Min: [Dims]float64{1, nan, 1}, Max: [Dims]float64{2, 3, 2}},
		{Min: [Dims]float64{-inf, 1, 1}, Max: [Dims]float64{-inf, 1, 1}},
		{Min: [Dims]float64{inf, inf, inf}, Max: [Dims]float64{inf, inf, inf}},
		{Min: [Dims]float64{negZero, negZero, negZero}, Max: [Dims]float64{0, 0, 0}},
		{Min: [Dims]float64{0, 0, 0}, Max: [Dims]float64{negZero, negZero, negZero}},
		{Min: [Dims]float64{5, 5, 50}, Max: [Dims]float64{4, 6, 60}},
	}
}

// runWindows derives query windows from boxes: each sampled box itself
// (faces equal to the record's), a point window on its low corner, a
// window touching it only at its high corner, the union of two boxes,
// plus an all-covering, a missing and a NaN window.
func runWindows(boxes []Box) []Box {
	inf, nan := math.Inf(1), math.NaN()
	out := []Box{
		{Min: [Dims]float64{-inf, -inf, -inf}, Max: [Dims]float64{inf, inf, inf}},
		{Min: [Dims]float64{50, 50, 500}, Max: [Dims]float64{60, 60, 600}},
		{Min: [Dims]float64{nan, 0, 0}, Max: [Dims]float64{1, 1, 10}},
	}
	step := max(1, len(boxes)/24)
	for i := 0; i < len(boxes); i += step {
		b := boxes[i]
		touch := Box{Min: b.Max, Max: b.Max}
		for a := range touch.Max {
			touch.Max[a] += 1
		}
		out = append(out, b, Box{Min: b.Min, Max: b.Min}, touch,
			b.Union(boxes[(i*7+3)%len(boxes)]))
	}
	return out
}

// linearCalls is the reference Search is held to: every (record, window)
// pair whose boxes intersect, record by record and window by window, moving
// to the next record once fn keeps one.
func linearCalls(boxes, qs []Box, fn func(i, w int) bool) [][2]int {
	var calls [][2]int
	for i, b := range boxes {
		for w, q := range qs {
			if b.Intersects(q) {
				calls = append(calls, [2]int{i, w})
				if fn(i, w) {
					break
				}
			}
		}
	}
	return calls
}

// checkRuns compares Search's calls with linearCalls, call for call in
// order, for every window of runWindows(boxes) alone and for sliding sets
// of three, under an fn that keeps every hit and one that rejects some.
func checkRuns(t *testing.T, name string, boxes []Box) {
	t.Helper()
	x := NewRuns(boxes)
	if !reflect.DeepEqual(x.boxes, boxes) {
		t.Fatalf("%s: index holds %d boxes, built over %d", name, len(x.boxes), len(boxes))
	}
	checkSearch(t, name, x, boxes)
}

// checkSearch holds x, an index over records whose boxes are boxes, to
// linearCalls as checkRuns describes, and its Bound to the box form's
// over the same boxes.
func checkSearch(t *testing.T, name string, x *Runs, boxes []Box) {
	t.Helper()
	ref := NewRuns(boxes)
	windows := runWindows(append(append([]Box{}, boxes...), oddBoxes()...))
	sets := make([][]Box, 0, 2*len(windows))
	for i := range windows {
		sets = append(sets, windows[i:i+1], windows[i:min(i+3, len(windows))])
	}
	fns := map[string]func(i, w int) bool{
		"keep":   func(int, int) bool { return true },
		"refine": func(i, w int) bool { return (i*7+w*3)%4 != 0 },
	}
	for si, qs := range sets {
		for fname, fn := range fns {
			want := linearCalls(boxes, qs, fn)
			var got [][2]int
			x.Search(qs, func(i, w int) bool {
				got = append(got, [2]int{i, w})
				return fn(i, w)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s, window set %d %+v: run index called %v, linear scan %v",
					name, fname, si, qs, got, want)
			}
			// Bound covers every hit of a single window and never exceeds
			// the records.
			if b := x.Bound(qs[0]); len(qs) == 1 && fname == "keep" && (b < len(want) || b > len(boxes)) {
				t.Fatalf("%s, window %+v: Bound %d for %d hits of %d records", name, qs[0], b, len(want), len(boxes))
			}
			if b, rb := x.Bound(qs[0]), ref.Bound(qs[0]); b != rb {
				t.Fatalf("%s, window %+v: Bound %d, box form's %d", name, qs[0], b, rb)
			}
		}
	}
}

// TestRunIndexMatchesLinearScan is the run-index wall: Search equals a
// brute-force scan of the boxes, call for call in order, across sizes
// around the run length, Z-clustered and unclustered orders, point and
// extended boxes, windows on record faces and points, single windows and
// window sets, a refining fn, and runs holding empty, NaN, infinite and
// signed-zero boxes; and the point form over coordinate columns, held to
// the box form over the same points (pointRunsWall). The serving tier's
// pinned segments and selection's filter run on this one search; stdata's
// segment wall checks the former against storage's merge-on-read,
// selection's metamorphic suite the latter against its linear scan.
func TestRunIndexMatchesLinearScan(t *testing.T) {
	checkRuns(t, "empty", nil)
	// 12500 records is a full partition of the benchmark's serve corpus.
	for _, n := range []int{1, 15, 16, 17, 33, 12500} {
		for _, point := range []bool{true, false} {
			for _, clustered := range []bool{true, false} {
				name := fmt.Sprintf("n=%d point=%v clustered=%v", n, point, clustered)
				checkRuns(t, name, runBoxes(n, int64(n), point, clustered))
			}
		}
	}
	for _, n := range []int{1, 16, 17, 40} {
		boxes := runBoxes(n, 7, false, true)
		odd := oddBoxes()
		for i := range boxes {
			if i%3 == 0 {
				boxes[i] = odd[i%len(odd)]
			}
		}
		checkRuns(t, fmt.Sprintf("odd n=%d", n), boxes)
	}
	pointRunsWall(t)
}

// pointEdgeCoords and pointEdgeTimes are the coordinates and times the
// point form's comparisons and run folds treat specially: NaN, ±Inf,
// signed zeros, the float extremes, and times a float64 cannot hold
// exactly or that sit at the int64 extremes.
var (
	pointEdgeCoords = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1.5, -74.000001, 40.7, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	pointEdgeTimes = []int64{0, 1_600_000_000, 1<<53 + 1, -(1<<53 + 3), math.MaxInt64, math.MinInt64,
		math.MinInt64 + 1, -1}
)

// pointCols splits boxes, each a BoxOfPoint, into coordinate columns. A
// box's time is the float64 of an int64 the caller chose, so converting
// it back loses nothing for the times runBoxes draws; edge times are set
// on the columns directly.
func pointCols(boxes []Box) (lon, lat []float64, ts []int64) {
	for _, b := range boxes {
		lon = append(lon, b.Min[0])
		lat = append(lat, b.Min[1])
		ts = append(ts, int64(b.Min[2]))
	}
	return lon, lat, ts
}

// checkPointRuns builds the point form over the columns and holds it to
// the box form over the records' BoxOfPoint boxes: run boxes equal bit
// for bit on all six coordinates, and Search and Bound as checkSearch.
func checkPointRuns(t *testing.T, name string, lon, lat []float64, ts []int64) {
	t.Helper()
	boxes := make([]Box, len(lon))
	for i := range boxes {
		boxes[i] = BoxOfPoint(geom.Pt(lon[i], lat[i]), ts[i])
	}
	x, ref := NewPointRuns(lon, lat, ts), NewRuns(boxes)
	if x.boxes != nil || len(x.runs) != len(ref.runs) {
		t.Fatalf("%s: point form holds %d record boxes and %d runs, box form %d runs",
			name, len(x.boxes), len(x.runs), len(ref.runs))
	}
	for r := range ref.runs {
		for a := 0; a < Dims; a++ {
			got, want := x.runs[r], ref.runs[r]
			if math.Float64bits(got.Min[a]) != math.Float64bits(want.Min[a]) ||
				math.Float64bits(got.Max[a]) != math.Float64bits(want.Max[a]) {
				t.Fatalf("%s: run %d box %+v, box form's %+v", name, r, got, want)
			}
		}
	}
	checkSearch(t, name, x, boxes)
}

// pointRunsWall is the run-index wall's point form: NewPointRuns over
// coordinate columns gives NewRuns's run boxes over the records'
// BoxOfPoint boxes bit for bit, and its Search and Bound equal a linear
// Box.Intersects scan of those boxes, record by record, for single windows
// and window sets — across sizes around the run length and a full serve
// partition's (12500, not a multiple of 16), clustered and unclustered
// points, records on NaN, ±Inf and signed-zero coordinates and
// int64-extreme times, and runs whose box is one point.
func pointRunsWall(t *testing.T) {
	checkPointRuns(t, "empty", nil, nil, nil)
	for _, n := range []int{1, 15, 16, 17, 33, 12500} {
		for _, clustered := range []bool{true, false} {
			lon, lat, ts := pointCols(runBoxes(n, int64(n), true, clustered))
			checkPointRuns(t, fmt.Sprintf("n=%d clustered=%v", n, clustered), lon, lat, ts)
		}
	}
	nc, nt := len(pointEdgeCoords), len(pointEdgeTimes)
	for _, n := range []int{1, 16, 17, 40, 150} {
		// Every third record on an edge pairing, the rest drawn.
		lon, lat, ts := pointCols(runBoxes(n, 7, true, true))
		for i := 0; i < n; i += 3 {
			lon[i], lat[i] = pointEdgeCoords[i%nc], pointEdgeCoords[(i/nc+i)%nc]
			ts[i] = pointEdgeTimes[i%nt]
		}
		checkPointRuns(t, fmt.Sprintf("edge n=%d", n), lon, lat, ts)
		// Every record on an edge pairing.
		for i := range lon {
			lon[i], lat[i] = pointEdgeCoords[i%nc], pointEdgeCoords[(i/nc+i)%nc]
			ts[i] = pointEdgeTimes[i%nt]
		}
		checkPointRuns(t, fmt.Sprintf("all-edge n=%d", n), lon, lat, ts)
	}
	// Runs whose box is one point: every record of a run on the same
	// coordinates, a signed zero, NaN or an infinity among them.
	for ci, c := range pointEdgeCoords {
		n := 16*2 + 5
		lon, lat, ts := make([]float64, n), make([]float64, n), make([]int64, n)
		for i := range lon {
			lon[i], lat[i], ts[i] = c, pointEdgeCoords[(ci+i/16)%nc], pointEdgeTimes[(ci+i/16)%nt]
		}
		checkPointRuns(t, fmt.Sprintf("flat runs at %v", c), lon, lat, ts)
	}
	// Runs mixing the two zeros, whose min and max differ only in sign.
	n := 16*3 + 7
	lon, lat, ts := make([]float64, n), make([]float64, n), make([]int64, n)
	negZero := math.Copysign(0, -1)
	for i := range lon {
		lon[i], lat[i] = 0, negZero
		if i%2 == 1 {
			lon[i], lat[i] = negZero, 0
		}
	}
	checkPointRuns(t, "signed zeros", lon, lat, ts)
}
