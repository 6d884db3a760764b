package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// encodeJSON is encoding/json's form of v with or without HTML escaping,
// less the encoder's trailing newline.
func encodeJSON(t *testing.T, v any, escapeHTML bool) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	for _, s := range []string{
		"", "plain", "<b>&amp;</b>", "quote\" back\\slash /",
		"\x00\x01\b\f\n\r\t\x1f\x7f", string(all),
		"\xff", "a\xe2\x80", "\xe2\x80\xa8\xe2\x80\xa9", "h\xc3\xa9llo \xe4\xb8\x96\xe7\x95\x8c \xf0\x9f\x97\xba",
		"\xed\xa0\x80 surrogate half",
	} {
		for _, html := range []bool{false, true} {
			want, err := encodeJSON(t, s, html)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendString([]byte("x"), s, html); !bytes.Equal(got, append([]byte("x"), want...)) {
				t.Errorf("AppendString(%q, html=%t) = %s, encoding/json %s", s, html, got[1:], want)
			}
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range append([]float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.999999e-7, 1e-7, 5e-324, math.SmallestNonzeroFloat64,
		1e20, 9.99e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, 123456789.123456789, -73.98765432101234,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}, gridBoundaries()...) {
		checkAppendFloat(t, f)
	}
	// Grid values across the fast path's range, and their neighbouring
	// doubles, which are off the grid and must fall through to strconv.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := float64(rng.Int63n(1e15-1) + 1)
		if i%2 == 0 {
			k = float64(rng.Int63n(1e9) + 1) // coordinate-sized
		}
		f := k / 1e6
		if i%3 == 0 {
			f = -f
		}
		checkAppendFloat(t, f)
		checkAppendFloat(t, math.Nextafter(f, math.Inf(1)))
		checkAppendFloat(t, math.Nextafter(f, math.Inf(-1)))
	}
}

// gridBoundaries is the grid fast path's boundary table: the ends of its
// range and the values just outside them, grid values and their
// neighbouring doubles, and fractions with 0, 1, 5 and no trailing zeros.
func gridBoundaries() []float64 {
	fs := []float64{
		1e-6, -1e-6, 9.999999e-7, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		999999999.999999, -999999999.999999, 1e9, -1e9, math.Nextafter(1e9, 0), math.Nextafter(1e9, 2e9),
		0.1, -0.1, math.Copysign(0, -1), 0.5, 1e-5, 0.000123,
		42, -42, 1234567, // remainder 0: no '.'
		1.23456, 9.99999, // remainder with 1 trailing zero
		1.1, -987654321.9, // remainder with 5 trailing zeros
		1.234567, -73.987654, 40.748817, 999999.999999,
	}
	for _, g := range []float64{-73.987654, 40.748817, 0.1, 1e-6, 123.5, 999999999.999999} {
		fs = append(fs, math.Nextafter(g, math.Inf(1)), math.Nextafter(g, math.Inf(-1)))
	}
	return fs
}

// checkAppendFloat fails t unless AppendFloat(f) matches json.Marshal(f)
// byte for byte, errors included.
func checkAppendFloat(t *testing.T, f float64) {
	t.Helper()
	want, werr := json.Marshal(f)
	got, gerr := AppendFloat([]byte("x"), f)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Errorf("AppendFloat(%v): error %v, encoding/json error %v", f, gerr, werr)
	case werr != nil && werr.Error() != gerr.Error():
		t.Errorf("AppendFloat(%v): error %q, encoding/json %q", f, gerr, werr)
	case werr == nil && !bytes.Equal(got, append([]byte("x"), want...)):
		t.Errorf("AppendFloat(%v) = %s, encoding/json %s", f, got[1:], want)
	}
}

// FuzzAppendFloat holds AppendFloat to json.Marshal byte for byte, errors
// included, on the double with bit pattern bits (any value, NaN and ±Inf
// included) and on the grid value k·1e-6 with its neighbouring doubles, so
// both the strconv path and the grid path are fuzzed.
func FuzzAppendFloat(f *testing.F) {
	for _, g := range gridBoundaries() {
		f.Add(math.Float64bits(g), int64(math.Round(g*1e6)))
	}
	f.Add(math.Float64bits(math.NaN()), int64(0))
	f.Add(math.Float64bits(math.Inf(-1)), int64(-1e15))
	f.Fuzz(func(t *testing.T, bits uint64, k int64) {
		checkAppendFloat(t, math.Float64frombits(bits))
		g := float64(k) / 1e6
		checkAppendFloat(t, g)
		checkAppendFloat(t, math.Nextafter(g, math.Inf(1)))
		checkAppendFloat(t, math.Nextafter(g, math.Inf(-1)))
	})
}
