package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
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
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e-6, 9.999999e-7, 1e-7, 5e-324, math.SmallestNonzeroFloat64,
		1e20, 9.99e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, 123456789.123456789, -73.98765432101234,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		want, werr := encodeJSON(t, f, true)
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
}
