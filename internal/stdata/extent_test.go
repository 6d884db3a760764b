package stdata

import (
	"math"
	"math/rand"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
)

// extentCoord draws a coordinate: mostly ordinary, sometimes one of the
// values float comparisons treat specially.
func extentCoord(rng *rand.Rand) float64 {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	if rng.Intn(6) == 0 {
		return special[rng.Intn(len(special))]
	}
	return (rng.Float64() - 0.5) * 360
}

// extentTime draws a start time or a time step: mostly small, sometimes
// an extreme whose delta from its neighbour overflows int64.
func extentTime(rng *rand.Rand) int64 {
	switch rng.Intn(8) {
	case 0:
		return math.MinInt64 + rng.Int63n(10)
	case 1:
		return math.MaxInt64 - rng.Int63n(10)
	case 2:
		return -rng.Int63()
	case 3:
		return rng.Int63()
	default:
		return rng.Int63n(3600) - 600
	}
}

// extentTrajs is the property corpus: empty, one-point and zero-length
// (every sample equal) trajectories, then seeded walks over ordinary,
// signed-zero, NaN and infinite coordinates with small and extreme time
// steps.
func extentTrajs(seed int64, n int) []TrajRec {
	rng := rand.New(rand.NewSource(seed))
	negZero := math.Copysign(0, -1)
	out := []TrajRec{
		{ID: 1},
		{ID: 2, Points: []geom.Point{geom.Pt(3, 4)}, Times: []int64{5}},
		{ID: 3, Points: []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1)}, Times: []int64{7, 7, 7}},
		{ID: 4, Points: []geom.Point{geom.Pt(negZero, 0), geom.Pt(0, negZero)}, Times: []int64{0, 0}},
		{ID: 5, Points: []geom.Point{geom.Pt(math.NaN(), 1), geom.Pt(2, 2)}, Times: []int64{1, 2}},
		{ID: 6, Points: []geom.Point{geom.Pt(1, 1), geom.Pt(math.Inf(-1), math.Inf(1))},
			Times: []int64{math.MaxInt64, math.MinInt64}},
	}
	for i := 0; i < n; i++ {
		tr := TrajRec{ID: int64(len(out) + 1)}
		t := extentTime(rng)
		for j := rng.Intn(20); j > 0; j-- {
			tr.Points = append(tr.Points, geom.Pt(extentCoord(rng), extentCoord(rng)))
			tr.Times = append(tr.Times, t)
			t += extentTime(rng)
		}
		out = append(out, tr)
	}
	return out
}

// sameBoxBits reports whether a and b are equal bit for bit on every axis,
// NaNs and signed zeros included.
func sameBoxBits(a, b index.Box) bool {
	for i := 0; i < index.Dims; i++ {
		if math.Float64bits(a.Min[i]) != math.Float64bits(b.Min[i]) ||
			math.Float64bits(a.Max[i]) != math.Float64bits(b.Max[i]) {
			return false
		}
	}
	return true
}

// TestTrajExtentMatchesBox is the extent wall's property half: for every
// trajectory of a seeded corpus split into a column block, the columnar
// Extent computed from the block's columns and the record's payload span
// consumes the span exactly and equals, bit for bit on every axis, the Box
// of the record Join builds from the same span — the box selection filters
// by — and the Box of the record that was written.
func TestTrajExtentMatchesBox(t *testing.T) {
	col := TrajRecC.Col
	for _, seed := range []int64{1, 2, 3} {
		trajs := extentTrajs(seed, 2000)
		cb := codec.GetColBlock()
		for _, tr := range trajs {
			col.Split(tr, cb)
			cb.EndRecord()
		}
		cb.SetPayload(append([]byte(nil), cb.Pay.Bytes()...), cb.PayLen)
		pay := codec.NewReader(nil)
		for i, tr := range trajs {
			var ext index.Box
			var joined TrajRec
			err := codec.Catch(func() {
				pay.ResetBytes(cb.PaySpan(i))
				ext = col.Extent(cb, i, pay)
				if pay.Remaining() != 0 {
					t.Fatalf("seed %d record %d: Extent left %d payload bytes", seed, i, pay.Remaining())
				}
				pay.ResetBytes(cb.PaySpan(i))
				joined = col.Join(cb, i, pay)
			})
			if err != nil {
				t.Fatalf("seed %d record %d: %v", seed, i, err)
			}
			if !sameBoxBits(ext, joined.Box()) || !sameBoxBits(ext, tr.Box()) {
				t.Fatalf("seed %d record %d (%d points): Extent %+v, joined Box %+v, written Box %+v",
					seed, i, len(tr.Points), ext, joined.Box(), tr.Box())
			}
		}
		codec.PutColBlock(cb)
	}
}

// TestTrajExtentAllocatesNothing pins that Extent reads a stored
// trajectory's box without building the record: no allocation per call.
func TestTrajExtentAllocatesNothing(t *testing.T) {
	cb := codec.GetColBlock()
	defer codec.PutColBlock(cb)
	tr := extentTrajs(4, 40)[39]
	tr.Points = append(tr.Points, geom.Pt(1, 2), geom.Pt(3, 4))
	tr.Times = append(tr.Times, 5, 6)
	TrajRecC.Col.Split(tr, cb)
	cb.EndRecord()
	cb.SetPayload(append([]byte(nil), cb.Pay.Bytes()...), cb.PayLen)
	pay := codec.NewReader(nil)
	var box index.Box
	if n := testing.AllocsPerRun(100, func() {
		pay.ResetBytes(cb.PaySpan(0))
		box = TrajRecC.Col.Extent(cb, 0, pay)
	}); n != 0 {
		t.Fatalf("Extent allocated %.0f times per call", n)
	}
	if !sameBoxBits(box, tr.Box()) {
		t.Fatalf("Extent %+v, Box %+v", box, tr.Box())
	}
}

// TestTrajExtentRejectsImpossibleCount pins that Extent bounds the point
// count exactly as Join does: a span claiming more points than its bytes
// can hold is corruption before any point is read.
func TestTrajExtentRejectsImpossibleCount(t *testing.T) {
	cb := codec.GetColBlock()
	defer codec.PutColBlock(cb)
	TrajRecC.Col.Split(TrajRec{ID: 1, Points: []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4)},
		Times: []int64{5, 6}}, cb)
	cb.EndRecord()
	span := append([]byte(nil), cb.Pay.Bytes()...)
	span[0] = 3 // three points, but bytes for only one past the first
	cb.SetPayload(span, []int64{int64(len(span))})
	for name, fn := range map[string]func(*codec.Reader){
		"Extent": func(r *codec.Reader) { TrajRecC.Col.Extent(cb, 0, r) },
		"Join":   func(r *codec.Reader) { TrajRecC.Col.Join(cb, 0, r) },
	} {
		if err := codec.Catch(func() { fn(codec.NewReader(cb.PaySpan(0))) }); err == nil {
			t.Errorf("%s accepted a span claiming 3 points in %d bytes", name, len(span))
		}
	}
}
