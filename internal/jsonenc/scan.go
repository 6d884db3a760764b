package jsonenc

import (
	"errors"
	"fmt"
)

// This file is the decode-side sibling of the appenders: a validating
// scanner that walks JSON text in place and reports where each value ends,
// so a parser can slice values out of a body instead of copying them. It
// accepts exactly what json.Valid accepts: strings without raw control
// bytes and with only the escapes \" \\ \/ \b \f \n \r \t \uXXXX (invalid
// UTF-8 passes, as it does for encoding/json), numbers in the RFC 8259
// grammar, the literals true, false and null, and at most maxDepth arrays
// and objects open at once.
//
// Every scan function takes the body and the offset to start at and
// returns the offset just past what it consumed. depth is the number of
// arrays and objects already open around the value at that offset (0 at
// the top level), so a value sliced out of a larger document is held to
// the document's nesting limit.

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

var errEOF = errors.New("jsonenc: unexpected end of JSON input")

// ErrorAt is the syntax error for the byte at offset i of b: an
// unexpected character, or the end of the input when i is past it.
func ErrorAt(b []byte, i int) error {
	if i >= len(b) {
		return errEOF
	}
	return fmt.Errorf("jsonenc: invalid character %q at offset %d", b[i], i)
}

// space marks JSON's four whitespace bytes.
var space = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// plain marks the bytes a string run can hold unescaped: everything but
// the control bytes, '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := ' '; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// SkipSpace returns the offset of the first non-whitespace byte of b at
// or after i (len(b) if there is none).
func SkipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && space[b[i]] {
		i++
	}
	return i
}

// scanString scans the string starting at b[i] and returns the offset
// past its closing quote.
func scanString(b []byte, i int) (int, error) {
	if i >= len(b) || b[i] != '"' {
		return i, ErrorAt(b, i)
	}
	for i++; ; i++ {
		for i < len(b) && plain[b[i]] {
			i++
		}
		if i >= len(b) {
			return i, errEOF
		}
		switch b[i] {
		case '"':
			return i + 1, nil
		case '\\':
			i++
			if i >= len(b) {
				return i, errEOF
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i >= len(b) || !isHex(b[i]) {
						return i, ErrorAt(b, i)
					}
				}
			default:
				return i, ErrorAt(b, i)
			}
		default: // a raw control byte
			return i, ErrorAt(b, i)
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber scans the number starting at b[i]: an optional minus, an
// integer part without leading zeros, then an optional fraction and
// exponent, each with at least one digit.
func scanNumber(b []byte, i int) (int, error) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return i, errEOF
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return i, ErrorAt(b, i)
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return i, ErrorAt(b, i)
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return i, ErrorAt(b, i)
		}
		i = digits(b, i+1)
	}
	return i, nil
}

func isDigit(c byte) bool { return c-'0' < 10 }

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// scanLiteral scans the literal lit (true, false or null) at b[i].
func scanLiteral(b []byte, i int, lit string) (int, error) {
	for k := 0; k < len(lit); k++ {
		if i+k >= len(b) || b[i+k] != lit[k] {
			return i + k, ErrorAt(b, i+k)
		}
	}
	return i + len(lit), nil
}

// ScanValue scans the value starting at b[i] (no leading whitespace),
// nested in depth open arrays and objects, and returns the offset past
// it.
func ScanValue(b []byte, i, depth int) (int, error) {
	// open holds the closing byte of each array and object opened inside
	// the value: ']' or '}'.
	var small [32]byte
	open := small[:0]
	var err error
	for {
		// A value starts at i.
		if i >= len(b) {
			return i, errEOF
		}
		switch c := b[i]; c {
		case '{', '[':
			if depth+len(open) >= maxDepth {
				return i, fmt.Errorf("jsonenc: exceeded max depth at offset %d", i)
			}
			closer := byte(']')
			if c == '{' {
				closer = '}'
			}
			if i = SkipSpace(b, i+1); i < len(b) && b[i] == closer {
				i++
				break // an empty container is a complete value
			}
			open = append(open, closer)
			if closer == '}' {
				if i, err = scanKey(b, i); err != nil {
					return i, err
				}
			}
			continue
		case '"':
			i, err = scanString(b, i)
		case 't':
			i, err = scanLiteral(b, i, "true")
		case 'f':
			i, err = scanLiteral(b, i, "false")
		case 'n':
			i, err = scanLiteral(b, i, "null")
		default:
			i, err = scanNumber(b, i)
		}
		if err != nil {
			return i, err
		}
		// A value ended at i: close containers until one continues.
		for {
			if len(open) == 0 {
				return i, nil
			}
			if i = SkipSpace(b, i); i >= len(b) {
				return i, errEOF
			}
			closer := open[len(open)-1]
			if b[i] == closer {
				open = open[:len(open)-1]
				i++
				continue
			}
			if b[i] != ',' {
				return i, ErrorAt(b, i)
			}
			i = SkipSpace(b, i+1)
			if closer == '}' {
				if i, err = scanKey(b, i); err != nil {
					return i, err
				}
			}
			break
		}
	}
}

// scanKey scans an object key and its colon, and returns the offset of
// the member's value.
func scanKey(b []byte, i int) (int, error) {
	i, err := scanString(b, i)
	if err != nil {
		return i, err
	}
	return scanColon(b, i)
}

// scanColon scans the colon after an object key, with the whitespace
// around it, and returns the offset of the member's value.
func scanColon(b []byte, i int) (int, error) {
	if i = SkipSpace(b, i); i >= len(b) || b[i] != ':' {
		return i, ErrorAt(b, i)
	}
	return SkipSpace(b, i+1), nil
}

// ScanObject scans the object starting at b[i], nested in depth open
// arrays and objects, and calls member for each member with its raw key
// (the bytes between the quotes, escapes as written) and the offset of
// its value. member must scan the value and return the offset past it; it
// runs nested in depth+1 containers. A null scans as an empty object.
func ScanObject(b []byte, i, depth int, member func(key []byte, i int) (int, error)) (int, error) {
	return scanContainer(b, i, depth, '{', '}', func(i int) (int, error) {
		end, err := scanString(b, i)
		if err != nil {
			return end, err
		}
		key := b[i+1 : end-1]
		if i, err = scanColon(b, end); err != nil {
			return i, err
		}
		return member(key, i)
	})
}

// ScanArray scans the array starting at b[i], nested in depth open arrays
// and objects, and calls elem with the offset of each element. elem must
// scan the element and return the offset past it; it runs nested in
// depth+1 containers. A null scans as an empty array.
func ScanArray(b []byte, i, depth int, elem func(i int) (int, error)) (int, error) {
	return scanContainer(b, i, depth, '[', ']', elem)
}

func scanContainer(b []byte, i, depth int, opener, closer byte, item func(i int) (int, error)) (int, error) {
	if i < len(b) && b[i] == 'n' {
		return scanLiteral(b, i, "null")
	}
	if i >= len(b) || b[i] != opener {
		return i, ErrorAt(b, i)
	}
	if depth >= maxDepth {
		return i, fmt.Errorf("jsonenc: exceeded max depth at offset %d", i)
	}
	if i = SkipSpace(b, i+1); i < len(b) && b[i] == closer {
		return i + 1, nil
	}
	for {
		var err error
		if i, err = item(i); err != nil {
			return i, err
		}
		if i = SkipSpace(b, i); i >= len(b) {
			return i, errEOF
		}
		switch b[i] {
		case closer:
			return i + 1, nil
		case ',':
			i = SkipSpace(b, i+1)
		default:
			return i, ErrorAt(b, i)
		}
	}
}
