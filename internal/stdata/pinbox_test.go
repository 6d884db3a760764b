package stdata

import (
	"fmt"
	"math"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/storage"
)

// The pinned-box wall: the boxes the storage reader returns beside a
// file's columns — which pin hands a trajectory segment's run index as
// they are — come from a native trajectory file's Extent walk and from the
// schema's BoxOf for any other file, and must equal, bit for bit on all
// six coordinates, the schema's BoxOf of the record the reader returned
// beside each, for every registered schema, in both layouts, in base and
// delta files. A point schema's segment asks for no boxes: its run index
// reads the columns, held to BoxOf by TestPointSegmentsMatchBoxOf. The
// push path's boxes are BoxOf of each pushed record
// (TestPushedBoxesMatchBoxOf).

// pinEdgeCoords are the coordinates float comparisons treat specially,
// plus ordinary and GPS-grid ones.
var pinEdgeCoords = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	1.5, -74.000001, 40.7, math.MaxFloat64, -math.SmallestNonzeroFloat64}

// pinEdgeTimes are times a float64 cannot hold exactly (beyond 2^53) and
// the int64 extremes, plus ordinary ones.
var pinEdgeTimes = []int64{0, 1_600_000_000, 1<<53 + 1, -(1<<53 + 3), math.MaxInt64, math.MinInt64,
	math.MinInt64 + 1, -1}

// pinEdgeRecs builds n records from mk over every pairing of the edge
// coordinates, cycling through the edge times.
func pinEdgeRecs[T any](n int, mk func(i int, p geom.Point, t int64) T) []T {
	return edgeRecs(pinEdgeCoords, n, mk)
}

// edgeRecs is pinEdgeRecs over the given coordinates.
func edgeRecs[T any](coords []float64, n int, mk func(i int, p geom.Point, t int64) T) []T {
	out := make([]T, n)
	nc := len(coords)
	for i := range out {
		p := geom.Pt(coords[i%nc], coords[(i/nc+i)%nc])
		out[i] = mk(i, p, pinEdgeTimes[i%len(pinEdgeTimes)])
	}
	return out
}

// checkBoxes fails unless boxes holds boxOf of each of recs, bit for bit.
func checkBoxes[T any](t *testing.T, name string, recs []T, boxes []index.Box, boxOf func(T) index.Box) {
	t.Helper()
	if len(boxes) != len(recs) {
		t.Fatalf("%s: %d boxes for %d records", name, len(boxes), len(recs))
	}
	for i, rec := range recs {
		if want := boxOf(rec); !sameBoxBits(boxes[i], want) {
			t.Fatalf("%s: record %d box %+v, BoxOf %+v", name, i, boxes[i], want)
		}
	}
}

// checkPinnedBoxes writes recs through c — the schema's codec, or its
// row-only twin — as one base partition of the first half and one delta
// file of the rest, then checks the boxes ReadBase and ReadDelta return
// against s's BoxOf. The writer's own boxes are
// zero: they only bound blocks and partitions (in JSON metadata, which
// cannot hold NaN or ±Inf), and every read here is whole.
func checkPinnedBoxes[T any](t *testing.T, s schema[T], layout string, c codec.Codec[T], recs []T) {
	t.Helper()
	name := s.spec.Name + " " + layout
	noBox := func(T) index.Box { return index.Box{} }
	dir := t.TempDir()
	half := len(recs) / 2
	if _, err := storage.Write(dir, c, [][]T{recs[:half]}, noBox,
		storage.WriteOptions{Name: s.spec.Name, BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.AppendDelta(dir, c, recs[half:], noBox, storage.AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	cols, boxes, _, err := storage.ReadBase(dir, meta, 0, s.spec.Codec, s.spec.BoxOf)
	if err != nil {
		t.Fatal(err)
	}
	got := joinRows(t, s, cols)
	checkBoxes(t, name+" base", got, boxes, s.spec.BoxOf)
	// The base keeps the written order: its boxes are the written records'.
	checkBoxes(t, name+" base vs written", recs[:half], boxes, s.spec.BoxOf)
	if len(meta.Deltas(0)) != 1 {
		t.Fatalf("%s: %d delta files, want 1", name, len(meta.Deltas(0)))
	}
	dm := meta.Deltas(0)[0]
	dcols, dboxes, _, err := storage.ReadDelta(dir, dm, s.spec.Codec, s.spec.BoxOf)
	if err != nil {
		t.Fatal(err)
	}
	drecs := joinRows(t, s, dcols)
	if len(drecs) != len(recs)-half {
		t.Fatalf("%s: delta holds %d records, want %d", name, len(drecs), len(recs)-half)
	}
	checkBoxes(t, name+" delta", drecs, dboxes, s.spec.BoxOf)

	// A read that asks for no boxes gets none.
	if _, nb, _, err := storage.ReadBase(dir, meta, 0, s.spec.Codec, nil); err != nil || nb != nil {
		t.Fatalf("%s: ReadBase with a nil boxOf returned %d boxes, %v", name, len(nb), err)
	}
}

// pinBoxWall runs checkPinnedBoxes over both layouts: the schema's native
// columns, and the generic row layout its codec without a Columnar schema
// writes.
func pinBoxWall[T any](t *testing.T, name string, recs []T) {
	s := registry[name].(schema[T])
	checkPinnedBoxes(t, s, "native", s.spec.Codec, recs)
	checkPinnedBoxes(t, s, "rows", codec.Codec[T]{Enc: s.spec.Codec.Enc, Dec: s.spec.Codec.Dec}, recs)
}

// TestPinnedBoxesMatchBoxOf is the wall over every registered schema.
// osm's box is a Box2 (time 0) and its writer stores T = 0, so its column
// box is the same Box2.
func TestPinnedBoxesMatchBoxOf(t *testing.T) {
	if got, want := fmt.Sprint(SchemaNames()), "[air nyc osm porto]"; got != want {
		t.Fatalf("registered schemas %s, the wall covers %s", got, want)
	}
	pinBoxWall(t, "nyc", pinEdgeRecs(150, func(i int, p geom.Point, ts int64) EventRec {
		return EventRec{ID: int64(i), Loc: p, Time: ts, Aux: fmt.Sprint("kind-", i%3)}
	}))
	pinBoxWall(t, "air", pinEdgeRecs(150, func(i int, p geom.Point, ts int64) AirRec {
		return AirRec{StationID: int64(i % 7), Loc: p, Time: ts, Indices: [6]float64{float64(i), math.NaN()}}
	}))
	pinBoxWall(t, "osm", pinEdgeRecs(150, func(i int, p geom.Point, _ int64) POIRec {
		return POIRec{ID: int64(i), Loc: p, Type: fmt.Sprint("type-", i%4)}
	}))
	pinBoxWall(t, "porto", extentTrajs(35, 150))
}

// checkPushedBoxes writes recs as one base partition of the first half and
// one delta file of the rest, and checks what the schema's ReadDelta — the
// push path — returns for the delta: one JSON record and one box per
// record the storage reader decodes, each box BoxOf of its record, bit for
// bit.
func checkPushedBoxes[T any](t *testing.T, name string, recs []T) {
	t.Helper()
	s := registry[name].(schema[T])
	noBox := func(T) index.Box { return index.Box{} }
	dir := t.TempDir()
	half := len(recs) / 2
	if _, err := storage.Write(dir, s.spec.Codec, [][]T{recs[:half]}, noBox,
		storage.WriteOptions{Name: name, BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.AppendDelta(dir, s.spec.Codec, recs[half:], noBox, storage.AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	dm := meta.Deltas(0)[0]
	cols, _, _, err := storage.ReadDelta(dir, dm, s.spec.Codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := joinRows(t, s, cols)
	boxes, pushed, err := s.ReadDelta(dir, dm)
	if err != nil {
		t.Fatal(err)
	}
	if len(pushed) != len(rows) || len(rows) != len(recs)-half {
		t.Fatalf("%s: pushed %d records of a %d-record delta, want %d", name, len(pushed), len(rows), len(recs)-half)
	}
	checkBoxes(t, name+" pushed", rows, boxes, s.spec.BoxOf)
}

// TestPushedBoxesMatchBoxOf runs checkPushedBoxes over every registered
// schema, on the pinned-box wall's edge records less NaN and ±Inf, which
// a record's JSON cannot carry.
func TestPushedBoxesMatchBoxOf(t *testing.T) {
	if got, want := fmt.Sprint(SchemaNames()), "[air nyc osm porto]"; got != want {
		t.Fatalf("registered schemas %s, the wall covers %s", got, want)
	}
	var finite []float64
	for _, c := range pinEdgeCoords {
		if !math.IsNaN(c) && !math.IsInf(c, 0) {
			finite = append(finite, c)
		}
	}
	checkPushedBoxes(t, "nyc", edgeRecs(finite, 150, func(i int, p geom.Point, ts int64) EventRec {
		return EventRec{ID: int64(i), Loc: p, Time: ts, Aux: fmt.Sprint("kind-", i%3)}
	}))
	checkPushedBoxes(t, "air", edgeRecs(finite, 150, func(i int, p geom.Point, ts int64) AirRec {
		return AirRec{StationID: int64(i % 7), Loc: p, Time: ts, Indices: [6]float64{float64(i), -0.5}}
	}))
	checkPushedBoxes(t, "osm", edgeRecs(finite, 150, func(i int, p geom.Point, _ int64) POIRec {
		return POIRec{ID: int64(i), Loc: p, Type: fmt.Sprint("type-", i%4)}
	}))
	var trajs []TrajRec
	for _, tr := range extentTrajs(35, 150) {
		ok := true
		for _, p := range tr.Points {
			ok = ok && !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
		}
		if ok {
			trajs = append(trajs, tr)
		}
	}
	checkPushedBoxes(t, "porto", trajs)
}

// checkPointSegment holds g, a point schema's pinned segment over recs, to
// the box form of the run index over BoxOf of each record: for the
// all-covering window and every record's own box (NaN, ±Inf and signed
// zeros among them), the same Bound, and the same hits, in order, as a
// linear BoxOf scan.
func checkPointSegment[T any](t *testing.T, name string, s schema[T], g *segment[T], recs []T) {
	t.Helper()
	boxes := make([]index.Box, len(recs))
	for i, rec := range recs {
		boxes[i] = s.spec.BoxOf(rec)
	}
	inf := math.Inf(1)
	windows := append([]index.Box{{Min: [3]float64{-inf, -inf, -inf}, Max: [3]float64{inf, inf, inf}}}, boxes...)
	ref := index.NewRuns(boxes)
	for _, q := range windows {
		if got, want := g.matchBound(q), ref.Bound(q); got != want {
			t.Fatalf("%s, window %+v: Bound %d, box form's %d", name, q, got, want)
		}
		var want []int32
		for i, b := range boxes {
			if b.Intersects(q) {
				want = append(want, int32(i))
			}
		}
		if got := g.appendHits(q, nil); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s, window %+v: hits %v, linear BoxOf scan %v", name, q, got, want)
		}
	}
}

// pointSegmentWall writes recs as checkPinnedBoxes does, in the schema's
// native columns and in the generic row layout, and checks the base and
// delta segments the schema pins from each with checkPointSegment: the
// point index reads the columns whichever layout filled them.
func pointSegmentWall[T any](t *testing.T, name string, recs []T) {
	t.Helper()
	s := registry[name].(schema[T])
	if !s.spec.Codec.Col.Point {
		t.Fatalf("%s is not a point schema", name)
	}
	noBox := func(T) index.Box { return index.Box{} }
	for layout, c := range map[string]codec.Codec[T]{
		"native": s.spec.Codec,
		"rows":   {Enc: s.spec.Codec.Enc, Dec: s.spec.Codec.Dec},
	} {
		dir := t.TempDir()
		half := len(recs) / 2
		if _, err := storage.Write(dir, c, [][]T{recs[:half]}, noBox,
			storage.WriteOptions{Name: name, BlockRecords: 8}); err != nil {
			t.Fatal(err)
		}
		if _, err := storage.AppendDelta(dir, c, recs[half:], noBox, storage.AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		meta, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := s.LoadBase(dir, meta, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkPointSegment(t, name+" "+layout+" base", s, base.(*segment[T]), recs[:half])
		delta, _, err := s.LoadDelta(dir, meta.Deltas(0)[0])
		if err != nil {
			t.Fatal(err)
		}
		g := delta.(*segment[T])
		checkPointSegment(t, name+" "+layout+" delta", s, g, joinRows(t, s, g.state.Load().cols))
	}
}

// TestPointSegmentsMatchBoxOf runs pointSegmentWall over the point schemas
// on the pinned-box wall's edge records.
func TestPointSegmentsMatchBoxOf(t *testing.T) {
	pointSegmentWall(t, "nyc", pinEdgeRecs(150, func(i int, p geom.Point, ts int64) EventRec {
		return EventRec{ID: int64(i), Loc: p, Time: ts, Aux: fmt.Sprint("kind-", i%3)}
	}))
	pointSegmentWall(t, "air", pinEdgeRecs(150, func(i int, p geom.Point, ts int64) AirRec {
		return AirRec{StationID: int64(i % 7), Loc: p, Time: ts, Indices: [6]float64{float64(i), math.NaN()}}
	}))
	pointSegmentWall(t, "osm", pinEdgeRecs(150, func(i int, p geom.Point, _ int64) POIRec {
		return POIRec{ID: int64(i), Loc: p, Type: fmt.Sprint("type-", i%4)}
	}))
}
