package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The varint kernel wall: the column decoders decode through one kernel
// (varintRun) with inline 1-, 2- and 3-byte paths, and must accept and
// reject exactly what the per-value Reader.Varint decoders below — the
// column decoders as they were before the kernel — accept and reject.

// refInt64Col is the reference Int64Col: one Reader.Varint call per value.
func refInt64Col(payload []byte, n int) []int64 {
	colCheckN(n)
	var out []int64
	if n == 0 {
		if len(payload) != 0 {
			panic(ErrCorrupt{Off: 0})
		}
		return out
	}
	r := NewReader(payload)
	switch r.colByte() {
	case colConst:
		v := r.Varint()
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	case colDelta:
		v := r.Varint()
		out = append(out, v)
		for i := 1; i < n; i++ {
			v += r.Varint()
			out = append(out, v)
		}
	default:
		panic(ErrCorrupt{Off: 0})
	}
	if r.Remaining() != 0 {
		r.corrupt()
	}
	return out
}

// refFloat64Col is the reference Float64Col.
func refFloat64Col(payload []byte, n int) []float64 {
	colCheckN(n)
	var out []float64
	if n == 0 {
		if len(payload) != 0 {
			panic(ErrCorrupt{Off: 0})
		}
		return out
	}
	r := NewReader(payload)
	switch r.colByte() {
	case colConst:
		v := r.Float64()
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	case colQuant:
		e := r.colByte()
		if int(e) >= len(pow10) {
			r.corrupt()
		}
		s := pow10[e]
		q := r.Varint()
		out = append(out, float64(q)/s)
		for i := 1; i < n; i++ {
			q += r.Varint()
			out = append(out, float64(q)/s)
		}
	case colBits:
		b := math.Float64bits(r.Float64())
		out = append(out, math.Float64frombits(b))
		for i := 1; i < n; i++ {
			b += uint64(r.Varint())
			out = append(out, math.Float64frombits(b))
		}
	default:
		panic(ErrCorrupt{Off: 0})
	}
	if r.Remaining() != 0 {
		r.corrupt()
	}
	return out
}

// refStringCol is the reference StringCol.
func refStringCol(payload []byte, n int) []string {
	colCheckN(n)
	var out []string
	if n == 0 {
		if len(payload) != 0 {
			panic(ErrCorrupt{Off: 0})
		}
		return out
	}
	r := NewReader(payload)
	switch r.colByte() {
	case colConst:
		v := r.String()
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	case colDict:
		dn := int(r.Uvarint())
		if dn <= 0 || dn > maxDictSize {
			r.corrupt()
		}
		dict := make([]string, dn)
		for i := range dict {
			dict[i] = r.String()
		}
		for i := 0; i < n; i++ {
			di := r.Uvarint()
			if di >= uint64(dn) {
				r.corrupt()
			}
			out = append(out, dict[di])
		}
	case colPlain:
		for i := 0; i < n; i++ {
			out = append(out, r.String())
		}
	default:
		panic(ErrCorrupt{Off: 0})
	}
	if r.Remaining() != 0 {
		r.corrupt()
	}
	return out
}

// decodeOutcome runs one decoder under Catch and renders what it returned
// — the values (floats as bit patterns) or the failure — so two decoders'
// outcomes compare as strings. Any failure renders alike: the wall pins
// whether a decoder fails, not the offset it reports.
func decodeOutcome(fn func() string) string {
	var got string
	if err := Catch(func() { got = fn() }); err != nil {
		return "corrupt"
	}
	return got
}

// checkColumnOracle asserts that the three column decoders and their
// references agree on payload at count n: the same values, bit for bit,
// or a failure on both sides.
func checkColumnOracle(t *testing.T, payload []byte, n int) {
	t.Helper()
	floatBits := func(vs []float64) string {
		bits := make([]uint64, len(vs))
		for i, v := range vs {
			bits[i] = math.Float64bits(v)
		}
		return fmt.Sprint(bits)
	}
	for _, c := range []struct {
		name      string
		got, want func() string
	}{
		{"Int64Col",
			func() string { return fmt.Sprint(Int64Col(payload, n, nil)) },
			func() string { return fmt.Sprint(refInt64Col(payload, n)) }},
		{"Float64Col",
			func() string { return floatBits(Float64Col(payload, n, nil)) },
			func() string { return floatBits(refFloat64Col(payload, n)) }},
		{"StringCol",
			func() string { return fmt.Sprintf("%q", StringCol(payload, n, nil)) },
			func() string { return fmt.Sprintf("%q", refStringCol(payload, n)) }},
	} {
		if got, want := decodeOutcome(c.got), decodeOutcome(c.want); got != want {
			t.Fatalf("%s(%x, n=%d) = %s, reference %s", c.name, payload, n, got, want)
		}
	}
}

// zigzag returns v's zig-zag varint encoding.
func zigzag(v int64) []byte { return binary.AppendVarint(nil, v) }

// TestVarintKernelBoundaries drives the kernel and its reference across
// every encoded width's boundaries, the extremes, non-canonical and
// overlong encodings, and every truncation of each stream, through all
// three column decoders and inside a delta stream.
func TestVarintKernelBoundaries(t *testing.T) {
	type stream struct {
		name string
		b    []byte // one varint (or a malformed byte run)
	}
	var streams []stream
	// Zig-zag maps v to 2v (v >= 0) or -2v-1, so the width boundaries of
	// the encoded value 0x7f/0x80, 0x3fff/0x4000 and 0x1fffff/0x200000
	// sit at these signed values.
	for _, v := range []int64{
		0, 1, -1, 0x3f, -0x40, 0x40, -0x41,
		0x1fff, -0x2000, 0x2000, -0x2001,
		0xfffff, -0x100000, 0x100000, -0x100001,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	} {
		streams = append(streams, stream{fmt.Sprintf("%d", v), zigzag(v)})
	}
	streams = append(streams,
		stream{"non-canonical 0x80 0x00", []byte{0x80, 0x00}},
		stream{"non-canonical 3-byte zero", []byte{0x80, 0x80, 0x00}},
		stream{"non-canonical 4-byte", []byte{0x81, 0x80, 0x80, 0x00}},
		stream{"10th byte 0x01", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		stream{"10th byte 0x02", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		stream{"11-byte run", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}},
		stream{"12-byte run", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		stream{"continuation only", []byte{0x80}},
	)
	modes := []struct {
		name string
		head []byte // the column's mode (and scale) bytes
	}{
		{"delta", []byte{colDelta}},
		{"const", []byte{colConst}},
		{"quant", []byte{colQuant, 6}},
		{"bits", append([]byte{colBits}, make([]byte, 8)...)},
		{"dict", []byte{colDict, 1, 1, 'a'}},
	}
	for _, s := range streams {
		for _, m := range modes {
			// The varint alone, then the varint between two 2-byte deltas:
			// a value the inline paths take and one they fall back on must
			// leave the stream positioned identically.
			mid := append(append(append([]byte{}, zigzag(0x1234)...), s.b...), zigzag(-0x1234)...)
			for _, body := range [][]byte{s.b, mid} {
				payload := append(append([]byte{}, m.head...), body...)
				for cut := 0; cut <= len(payload); cut++ {
					for n := 0; n <= 4; n++ {
						checkColumnOracle(t, payload[:cut], n)
					}
				}
			}
		}
	}
}

// TestVarintKernelStreams pins the kernel against binary.Varint over long
// random streams of every width mix, checking values and end offsets.
func TestVarintKernelStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, maxBits := range []uint{6, 13, 20, 27, 40, 63} {
		vals := make([]int64, 2000)
		var b []byte
		for i := range vals {
			v := rng.Int63() >> (63 - maxBits)
			if rng.Intn(2) == 0 {
				v = -v
			}
			vals[i] = v
			b = binary.AppendVarint(b, v)
		}
		b = append(b, 0xaa) // a trailing byte the kernel must stop before
		out := make([]int64, len(vals))
		var end int
		if err := Catch(func() { end = varintRun(b, 0, 7, out) }); err != nil {
			t.Fatalf("maxBits %d: %v", maxBits, err)
		}
		sum, off := int64(7), 0
		for i := range vals {
			v, n := binary.Varint(b[off:])
			sum += v
			off += n
			if out[i] != sum {
				t.Fatalf("maxBits %d: out[%d] = %d, want %d", maxBits, i, out[i], sum)
			}
		}
		if end != off || end != len(b)-1 {
			t.Fatalf("maxBits %d: kernel ended at %d, binary.Varint at %d", maxBits, end, off)
		}
	}
}

// benchColumn is one encoded column BenchmarkColumnDecode decodes.
type benchColumn struct {
	name    string
	mode    byte // the mode the encoder must have picked
	payload []byte
	n       int
	decode  func(payload []byte, n int)
}

// benchColumns encodes 1024-value columns shaped like a clustered v3
// block's: quant-mode coordinates on a 1e-6 grid (2- and 3-byte deltas),
// bits-mode random floats (6- to 8-byte deltas), delta-mode timestamps,
// and a dictionary string column.
func benchColumns() []benchColumn {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	quant, bits := make([]float64, n), make([]float64, n)
	ts := make([]int64, n)
	strs := make([]string, n)
	lon, t := -74.0, int64(1_600_000_000)
	for i := 0; i < n; i++ {
		lon += float64(rng.Intn(20000)-10000) * 1e-6
		quant[i] = math.Round(lon*1e6) / 1e6
		bits[i] = rng.Float64() * 100
		t += rng.Int63n(600)
		ts[i] = t
		strs[i] = fmt.Sprintf("kind-%d", rng.Intn(12))
	}
	enc := func(put func(w *Writer)) []byte {
		w := NewWriter(0)
		put(w)
		return w.Bytes()
	}
	floats := make([]float64, 0, n)
	ints := make([]int64, 0, n)
	strOut := make([]string, 0, n)
	return []benchColumn{
		{"quant", colQuant, enc(func(w *Writer) { w.PutFloat64Col(quant) }), n,
			func(p []byte, n int) { floats = Float64Col(p, n, floats) }},
		{"bits", colBits, enc(func(w *Writer) { w.PutFloat64Col(bits) }), n,
			func(p []byte, n int) { floats = Float64Col(p, n, floats) }},
		{"delta", colDelta, enc(func(w *Writer) { w.PutInt64Col(ts) }), n,
			func(p []byte, n int) { ints = Int64Col(p, n, ints) }},
		{"dict", colDict, enc(func(w *Writer) { w.PutStringCol(strs) }), n,
			func(p []byte, n int) { strOut = StringCol(p, n, strOut) }},
	}
}

// BenchmarkColumnDecode measures one column decode per mode; ns/op over
// 1024 is the per-value cost the spine's codec.col_decode_ns_per_val
// reports.
func BenchmarkColumnDecode(b *testing.B) {
	for _, c := range benchColumns() {
		b.Run(c.name, func(b *testing.B) {
			if c.payload[0] != c.mode {
				b.Fatalf("%s column encoded in mode %d, want %d", c.name, c.payload[0], c.mode)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(c.payload)))
			for i := 0; i < b.N; i++ {
				c.decode(c.payload, c.n)
			}
		})
	}
}
