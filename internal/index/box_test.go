package index

import (
	"math"
	"testing"
)

// TestBoxUnionMatchesMathMinMax pins Box.Union's builtin min/max to the
// math.Min/math.Max results bit for bit on signed zeros and infinities.
func TestBoxUnionMatchesMathMinMax(t *testing.T) {
	vs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 3.5}
	for _, x := range vs {
		for _, y := range vs {
			var a, b Box
			for i := 0; i < Dims; i++ {
				a.Min[i], a.Max[i] = min(x, y), max(x, y)
				b.Min[i], b.Max[i] = y, y
			}
			got := a.Union(b)
			for i := 0; i < Dims; i++ {
				wantMin, wantMax := math.Min(a.Min[i], b.Min[i]), math.Max(a.Max[i], b.Max[i])
				if math.Float64bits(got.Min[i]) != math.Float64bits(wantMin) ||
					math.Float64bits(got.Max[i]) != math.Float64bits(wantMax) {
					t.Fatalf("%v.Union(%v) axis %d = [%g, %g], want [%g, %g]",
						a, b, i, got.Min[i], got.Max[i], wantMin, wantMax)
				}
			}
		}
	}
}
