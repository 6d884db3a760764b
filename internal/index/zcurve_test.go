package index

import (
	"math/rand"
	"testing"

	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

// deinterleave2 inverts interleave2: the even bits of k go to x, the odd
// bits to y.
func deinterleave2(k uint64) (x, y uint64) {
	return compact(k), compact(k >> 1)
}

// compact is the inverse of spread.
func compact(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// cellBox is the spatial extent of the cell holding key k.
func cellBox(z *ZCurve2D, k uint64) geom.MBR {
	ix, iy := deinterleave2(k)
	w := z.domain.Width() / float64(z.cells())
	h := z.domain.Height() / float64(z.cells())
	return geom.MBR{
		MinX: z.domain.MinX + float64(ix)*w,
		MinY: z.domain.MinY + float64(iy)*h,
		MaxX: z.domain.MinX + float64(ix+1)*w,
		MaxY: z.domain.MinY + float64(iy+1)*h,
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x := rng.Uint64() & 0x7fffffff
		y := rng.Uint64() & 0x7fffffff
		gx, gy := deinterleave2(interleave2(x, y))
		if gx != x || gy != y {
			t.Fatalf("round trip failed: (%d,%d) -> (%d,%d)", x, y, gx, gy)
		}
	}
}

func TestZCurveKeyLocality(t *testing.T) {
	z := NewZCurve2D(geom.Box(0, 0, 100, 100), 4) // 16 cells/dim, 6.25 wide
	// Same cell -> same key.
	if z.Key(geom.Pt(10.1, 10.1)) != z.Key(geom.Pt(10.2, 10.2)) {
		t.Error("nearby points in one cell should share a key")
	}
	// Distinct cells -> distinct keys.
	if z.Key(geom.Pt(1, 1)) == z.Key(geom.Pt(99, 99)) {
		t.Error("far points should have different keys")
	}
}

func TestZCurveKeyInCellBox(t *testing.T) {
	z := NewZCurve2D(geom.Box(-10, -10, 10, 10), 6)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		p := geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		cell := cellBox(z, z.Key(p))
		if !cell.Buffer(1e-9).ContainsPoint(p) {
			t.Fatalf("point %v not in its cell %v", p, cell)
		}
	}
}

func TestZCurveRangesCoverQuery(t *testing.T) {
	z := NewZCurve2D(geom.Box(0, 0, 100, 100), 8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		q := geom.Box(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100, rng.Float64()*100)
		ranges := z.Ranges(q, 6)
		// Every point inside the query must fall in some range.
		for j := 0; j < 50; j++ {
			p := geom.Pt(
				q.MinX+rng.Float64()*q.Width(),
				q.MinY+rng.Float64()*q.Height())
			key := z.Key(p)
			found := false
			for _, r := range ranges {
				if key >= r.Lo && key <= r.Hi {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("point %v key %d not covered by %d ranges for query %v",
					p, key, len(ranges), q)
			}
		}
	}
}

func TestZCurveRangesSortedAndMerged(t *testing.T) {
	z := NewZCurve2D(geom.Box(0, 0, 100, 100), 8)
	ranges := z.Ranges(geom.Box(10, 10, 60, 60), 6)
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo <= ranges[i-1].Hi+1 {
			t.Fatalf("ranges not merged/sorted at %d: %v %v", i, ranges[i-1], ranges[i])
		}
	}
}

func TestZCurveFullDomainQuery(t *testing.T) {
	z := NewZCurve2D(geom.Box(0, 0, 100, 100), 8)
	ranges := z.Ranges(geom.Box(0, 0, 100, 100), 6)
	if len(ranges) != 1 {
		t.Fatalf("full-domain query should give one range, got %v", ranges)
	}
	if ranges[0].Lo != 0 || ranges[0].Hi != 1<<16-1 {
		t.Errorf("full range = %v", ranges[0])
	}
}

func TestZCurveDisjointQuery(t *testing.T) {
	z := NewZCurve2D(geom.Box(0, 0, 100, 100), 8)
	if got := z.Ranges(geom.Box(200, 200, 300, 300), 6); got != nil {
		t.Errorf("disjoint query = %v", got)
	}
}

func TestZCurve3DKeysOrderByTime(t *testing.T) {
	window := tempo.New(0, 86400)
	z := NewZCurve3D(geom.Box(0, 0, 100, 100), window, 8, 3600)
	p := geom.Pt(50, 50)
	k1 := z.Key(p, 100)  // bin 0
	k2 := z.Key(p, 7200) // bin 2
	if k1 >= k2 {
		t.Errorf("later time bin should yield larger key: %d vs %d", k1, k2)
	}
}

func TestZCurve3DRangesCover(t *testing.T) {
	window := tempo.New(0, 86400)
	z := NewZCurve3D(geom.Box(0, 0, 100, 100), window, 8, 3600)
	rng := rand.New(rand.NewSource(4))
	qs := geom.Box(20, 20, 70, 70)
	qt := tempo.New(3600, 14400)
	ranges := z.Ranges(qs, qt, 6)
	for i := 0; i < 300; i++ {
		p := geom.Pt(20+rng.Float64()*50, 20+rng.Float64()*50)
		ts := 3600 + rng.Int63n(14400-3600)
		key := z.Key(p, ts)
		found := false
		for _, r := range ranges {
			if key >= r.Lo && key <= r.Hi {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("ST point (%v, %d) not covered", p, ts)
		}
	}
}

func TestMergeRanges(t *testing.T) {
	got := mergeRanges([]KeyRange{{10, 20}, {0, 5}, {21, 30}, {40, 50}, {45, 60}})
	want := []KeyRange{{0, 5}, {10, 30}, {40, 60}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("range %d = %v, want %v", i, got[i], want[i])
		}
	}
}
