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

// The pinned-box wall: a pinned segment's boxes come from the storage
// reader — from the decoded (lon, lat, t) columns of a native point file,
// from the schema's BoxOf for any other file — and must equal, bit for bit
// on all six coordinates, the schema's BoxOf of the record the reader
// returned beside each, for every registered schema, in both layouts, in
// base and delta files.

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
	out := make([]T, n)
	nc := len(pinEdgeCoords)
	for i := range out {
		p := geom.Pt(pinEdgeCoords[i%nc], pinEdgeCoords[(i/nc+i)%nc])
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
// file of the rest, then checks the boxes ReadBase, ReadDelta, LoadBase
// and LoadDelta return against s's BoxOf. The writer's own boxes are
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
	got, boxes, _, err := storage.ReadBase(dir, meta, 0, s.spec.Codec, s.spec.BoxOf)
	if err != nil {
		t.Fatal(err)
	}
	checkBoxes(t, name+" base", got, boxes, s.spec.BoxOf)
	// The base keeps the written order: its boxes are the written records'.
	checkBoxes(t, name+" base vs written", recs[:half], boxes, s.spec.BoxOf)
	p, _, err := s.LoadBase(dir, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkBoxes(t, name+" pinned base", got, p.(*segment[T]).idx.Boxes(), s.spec.BoxOf)
	if len(meta.Deltas(0)) != 1 {
		t.Fatalf("%s: %d delta files, want 1", name, len(meta.Deltas(0)))
	}
	dm := meta.Deltas(0)[0]
	drecs, dboxes, _, err := storage.ReadDelta(dir, dm, s.spec.Codec, s.spec.BoxOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(drecs) != len(recs)-half {
		t.Fatalf("%s: delta holds %d records, want %d", name, len(drecs), len(recs)-half)
	}
	checkBoxes(t, name+" delta", drecs, dboxes, s.spec.BoxOf)
	d, _, err := s.LoadDelta(dir, dm)
	if err != nil {
		t.Fatal(err)
	}
	checkBoxes(t, name+" pinned delta", drecs, d.(*segment[T]).idx.Boxes(), s.spec.BoxOf)
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

// TestPinnedBoxesMatchBoxOf is the wall over every registered schema: nyc,
// air and osm take their boxes from the point columns, porto from BoxOf.
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
