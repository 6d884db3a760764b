package geom

import (
	"math"
	"testing"
)

// minMaxEdgeValues are the non-NaN operands whose min/max semantics differ
// from a naive comparison: signed zeros and the infinities.
var minMaxEdgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -2.5,
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameMBRBits(a, b MBR) bool {
	return sameBits(a.MinX, b.MinX) && sameBits(a.MinY, b.MinY) &&
		sameBits(a.MaxX, b.MaxX) && sameBits(a.MaxY, b.MaxY)
}

// TestBuiltinMinMaxMatchMath pins the builtin min/max the box code uses
// (they inline; math.Min/math.Max do not) to the math versions. On every
// non-NaN pairing, ±0 and ±Inf included, the results are bit-identical. A
// NaN operand makes both NaN (payload and sign may differ), except against
// the infinity math.Min/math.Max treat as absorbing: math.Min(NaN, -Inf)
// is -Inf and math.Max(NaN, +Inf) is +Inf, where the builtins give NaN.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	for _, x := range minMaxEdgeValues {
		for _, y := range minMaxEdgeValues {
			if got, want := min(x, y), math.Min(x, y); !sameBits(got, want) {
				t.Errorf("min(%g, %g) = %#x, math.Min %#x", x, y, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := max(x, y), math.Max(x, y); !sameBits(got, want) {
				t.Errorf("max(%g, %g) = %#x, math.Max %#x", x, y, math.Float64bits(got), math.Float64bits(want))
			}
			for _, z := range minMaxEdgeValues {
				if got, want := max(x, y, z), math.Max(x, math.Max(y, z)); !sameBits(got, want) {
					t.Errorf("max(%g, %g, %g) = %#x, nested math.Max %#x", x, y, z, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
	nan := math.NaN()
	for _, x := range minMaxEdgeValues {
		for _, pair := range [][2]float64{{x, nan}, {nan, x}} {
			a, b := pair[0], pair[1]
			if !math.IsNaN(min(a, b)) {
				t.Errorf("min(%g, %g) = %g, want NaN", a, b, min(a, b))
			}
			if !math.IsNaN(max(a, b)) {
				t.Errorf("max(%g, %g) = %g, want NaN", a, b, max(a, b))
			}
			if m := math.Min(a, b); math.IsInf(x, -1) != !math.IsNaN(m) {
				t.Errorf("math.Min(%g, %g) = %g", a, b, m)
			}
			if m := math.Max(a, b); math.IsInf(x, 1) != !math.IsNaN(m) {
				t.Errorf("math.Max(%g, %g) = %g", a, b, m)
			}
		}
	}
}

// TestBoxOpsMatchMathMinMax checks Box, Union, Intersection, DistanceTo and
// onSegment bit for bit against their math.Min/math.Max formulations on
// pairings of the edge values.
func TestBoxOpsMatchMathMinMax(t *testing.T) {
	vs := minMaxEdgeValues
	for _, x1 := range vs {
		for _, x2 := range vs {
			for _, y := range []float64{0, math.Copysign(0, -1), math.Inf(-1)} {
				want := MBR{
					MinX: math.Min(x1, x2), MinY: math.Min(y, x2),
					MaxX: math.Max(x1, x2), MaxY: math.Max(y, x2),
				}
				if got := Box(x1, y, x2, x2); !sameMBRBits(got, want) {
					t.Errorf("Box(%g, %g, %g, %g) = %v, want %v", x1, y, x2, x2, got, want)
				}
				a := MBR{MinX: x1, MinY: y, MaxX: x2, MaxY: x2}
				b := MBR{MinX: x2, MinY: x1, MaxX: y, MaxY: x1}
				union := MBR{
					MinX: math.Min(a.MinX, b.MinX), MinY: math.Min(a.MinY, b.MinY),
					MaxX: math.Max(a.MaxX, b.MaxX), MaxY: math.Max(a.MaxY, b.MaxY),
				}
				if a.IsEmpty() {
					union = b
				} else if b.IsEmpty() {
					union = a
				}
				if got := a.Union(b); !sameMBRBits(got, union) {
					t.Errorf("%v.Union(%v) = %v, want %v", a, b, got, union)
				}
				inter := MBR{
					MinX: math.Max(a.MinX, b.MinX), MinY: math.Max(a.MinY, b.MinY),
					MaxX: math.Min(a.MaxX, b.MaxX), MaxY: math.Min(a.MaxY, b.MaxY),
				}
				if inter.IsEmpty() {
					inter = EmptyMBR()
				}
				if got := a.Intersection(b); !sameMBRBits(got, inter) {
					t.Errorf("%v.Intersection(%v) = %v, want %v", a, b, got, inter)
				}
				p := Pt(x1, y)
				dist := math.Inf(1)
				if !b.IsEmpty() {
					dx := math.Max(0, math.Max(b.MinX-p.X, p.X-b.MaxX))
					dy := math.Max(0, math.Max(b.MinY-p.Y, p.Y-b.MaxY))
					dist = math.Sqrt(dx*dx + dy*dy)
				}
				// Inf−Inf makes NaN differences here, so only NaN-ness is
				// compared when the math result is NaN.
				if got := b.DistanceTo(p); !sameBits(got, dist) && !(math.IsNaN(got) && math.IsNaN(dist)) {
					t.Errorf("%v.DistanceTo(%v) = %g, want %g", b, p, got, dist)
				}
				pa, pb := Pt(x1, y), Pt(x2, x1)
				on := math.Min(pa.X, pb.X) <= p.X && p.X <= math.Max(pa.X, pb.X) &&
					math.Min(pa.Y, pb.Y) <= p.Y && p.Y <= math.Max(pa.Y, pb.Y)
				if got := onSegment(pa, pb, p); got != on {
					t.Errorf("onSegment(%v, %v, %v) = %v, want %v", pa, pb, p, got, on)
				}
			}
		}
	}
}
