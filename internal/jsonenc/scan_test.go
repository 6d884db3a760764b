package jsonenc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// valid is the scanner's answer to json.Valid: one value, then only
// whitespace.
func valid(b []byte) bool {
	i, err := ScanValue(b, SkipSpace(b, 0), 0)
	return err == nil && SkipSpace(b, i) == len(b)
}

// walk scans the value at b[i] through ScanObject and ScanArray for every
// container and ScanValue for every scalar, so their walks are held to
// ScanValue's.
func walk(b []byte, i, depth int) (int, error) {
	if i < len(b) && b[i] == '{' {
		return ScanObject(b, i, depth, func(_ []byte, i int) (int, error) { return walk(b, i, depth+1) })
	}
	if i < len(b) && b[i] == '[' {
		return ScanArray(b, i, depth, func(i int) (int, error) { return walk(b, i, depth+1) })
	}
	return ScanValue(b, i, depth)
}

// checkScan holds the scanner to encoding/json on b: it accepts exactly
// what json.Valid does, and its first value ends where json.Decoder's
// does (the decoder reads one value and leaves any trailing bytes).
func checkScan(t *testing.T, b []byte) {
	t.Helper()
	if got, want := valid(b), json.Valid(b); got != want {
		t.Fatalf("%.80q: scanner valid=%t, json.Valid %t", b, got, want)
	}
	var raw json.RawMessage
	derr := json.NewDecoder(bytes.NewReader(b)).Decode(&raw)
	start := SkipSpace(b, 0)
	for _, scan := range []func([]byte, int, int) (int, error){ScanValue, walk} {
		end, err := scan(b, start, 0)
		if (err == nil) != (derr == nil) {
			t.Fatalf("%.80q: scan error %v, json.Decoder error %v", b, err, derr)
		}
		if err == nil && !bytes.Equal(b[start:end], raw) {
			t.Fatalf("%.80q: scanned value %.80q, json.Decoder %.80q", b, b[start:end], raw)
		}
	}
}

// TestScanEdgeCases pins the scanner's grammar at its edges, each case
// checked against encoding/json as well as against the expected answer.
func TestScanEdgeCases(t *testing.T) {
	deep := func(n int, open, close string) string {
		return strings.Repeat(open, n) + strings.Repeat(close, n)
	}
	cases := []struct {
		in   string
		want bool
	}{
		{`0`, true}, {`-0`, true}, {`1e5`, true}, {`1E+5`, true}, {`1e-05`, true}, {`-12.5e3`, true},
		{`01`, false}, {`1.`, false}, {`.5`, false}, {`+1`, false}, {`-`, false}, {`1e`, false},
		{`1e+`, false}, {`1.e5`, false}, {`--1`, false}, {`0x1`, false},
		{`"\" \\ \/ \b \f \n \r \t é ꯍ 😀"`, true},
		{`"\u12G4"`, false}, {`"\u123"`, false}, {`"\x"`, false}, {`"\'"`, false}, {`"\`, false},
		{"\"\xff\xfe \xed\xa0\x80 \xe2\x80\"", true}, // invalid UTF-8
		{`"\u`, false}, {`"abc`, false}, {`"`, false},
		{`true`, true}, {`false`, true}, {`null`, true}, {`nul`, false}, {`truex`, false}, {`True`, false},
		{`[]`, true}, {`{}`, true}, {` [ 1 , "a" , { "k" : null } ] `, true}, {`[1,]`, false},
		{`{"a":1,}`, false}, {`{"a" 1}`, false}, {`{1:2}`, false}, {`[1 2]`, false}, {`{"a":1 "b":2}`, false},
		{`[`, false}, {`{"a":`, false}, {`]`, false}, {`}`, false},
		{deep(10000, "[", "]"), true}, {deep(10001, "[", "]"), false},
		{strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat(`}`, 10000), true},
		{strings.Repeat(`{"a":`, 10001) + `1` + strings.Repeat(`}`, 10001), false},
		{strings.Repeat(`[`, 9999) + `{}` + strings.Repeat(`]`, 9999), true},
		{strings.Repeat(`[`, 10000) + `{}` + strings.Repeat(`]`, 10000), false},
		{`{} x`, false}, {`[1]]`, false}, {`1 2`, false}, {`"a""b"`, false}, {"1\x00", false},
		{" \t\n\r", false}, {``, false}, {" \t1\n\r", true}, {"\v1", false}, {"1 ", false},
	}
	for c := byte(0); c < ' '; c++ {
		cases = append(cases, struct {
			in   string
			want bool
		}{`"a` + string(c) + `b"`, false})
	}
	cases = append(cases, struct {
		in   string
		want bool
	}{"\"\x7f\"", true})
	for _, c := range cases {
		if json.Valid([]byte(c.in)) != c.want {
			t.Fatalf("%.40q: json.Valid disagrees with the table", c.in)
		}
		checkScan(t, []byte(c.in))
	}
}

func FuzzScan(f *testing.F) {
	for _, s := range []string{
		`{"shard":"s0","gen":3,"parts":[{"id":1,"selected":2,"records":[{"ID":1,"Loc":{"X":-73.9,"Y":40.7}}]}]}`,
		`[1,-0.5e-3,true,false,null,"aé\n",{}]`, `"😀"`, "\"\xff\"", `01`, `1 2`, ` `,
		`{"a":[[[[]]]]}`, `[1,]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkScan(t, b)
	})
}
