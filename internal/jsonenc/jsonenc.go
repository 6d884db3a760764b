// Package jsonenc holds the append-style JSON primitives the serving edge
// encodes records and reply envelopes with: floats and strings written
// byte-identically to encoding/json, without reflection and without the
// re-scan json.Encoder gives every json.RawMessage. Integers need no
// helper (strconv.AppendInt is already encoding/json's form).
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
//
// A value on the 1e-6 grid — every stored coordinate, which datagen and
// GPS feeds snap there — is printed without strconv: for 1e-6 ≤ |f| < 1e9
// and k = round(|f|·1e6), k/1e6 == |f| means f is the double nearest the
// decimal k·1e-6, and that decimal is f's shortest form. Any other decimal
// of at most six places lies ≥ 1e-6 from it, more than the ulp (≤ 2^-23)
// below 1e9, so it names a different double, and a shorter decimal has
// fewer places. k ≤ 1e15 < 2^53 is exact. The test is exact too, so a
// value off the grid only falls through to strconv.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e9 {
		if k := math.Round(abs * 1e6); k/1e6 == abs {
			return appendGrid(dst, f < 0, uint64(k)), nil
		}
	}
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

// appendGrid appends the decimal k·1e-6, negated when neg: the integer
// part, then '.' and the six fraction digits with trailing zeros trimmed,
// and no '.' when the fraction is zero.
func appendGrid(dst []byte, neg bool, k uint64) []byte {
	var buf [24]byte // '-', 9 integer digits, '.', 6 fraction digits
	i := len(buf)
	if frac := k % 1e6; frac != 0 {
		n := 6
		for frac%10 == 0 {
			frac /= 10
			n--
		}
		for ; n > 0; n-- {
			i--
			buf[i] = byte('0' + frac%10)
			frac /= 10
		}
		i--
		buf[i] = '.'
	}
	for ip := k / 1e6; ; ip /= 10 {
		i--
		buf[i] = byte('0' + ip%10)
		if ip < 10 {
			break
		}
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:]...)
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
