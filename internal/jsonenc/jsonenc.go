// Package jsonenc holds the append-style JSON primitives the serving edge
// encodes records and reply envelopes with: floats and strings written
// byte-identically to encoding/json, without reflection and without the
// re-scan json.Encoder gives every json.RawMessage. Integers need no
// helper (strconv.AppendInt is already encoding/json's form). Its decode
// side is a validating scanner (scan.go) that accepts exactly what
// json.Valid does and reports where each value ends, so a reply's parser
// can keep values as sub-slices of the body instead of copies.
package jsonenc

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json writes a float64: the shortest
// form that round-trips, in 'f' notation, or 'e' below 1e-6 and from 1e21
// up with a two-digit negative exponent shortened (e-09 → e-9). NaN and
// ±Inf have no JSON form and fail with encoding/json's message.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hex = "0123456789abcdef"

// AppendString appends s as a quoted JSON string exactly as encoding/json
// writes it: the short escapes for '"', '\\', \b, \f, \n, \r and \t,
// \u00XX for the other control bytes, \ufffd for each invalid UTF-8 byte,
// and U+2028/U+2029 escaped. escapeHTML also escapes <, > and & as \u003c,
// \u003e and \u0026 — json.Marshal's default, which json.Encoder's
// SetEscapeHTML(false) turns off.
func AppendString(dst []byte, s string, escapeHTML bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && (!escapeHTML || (b != '<' && b != '>' && b != '&')) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
