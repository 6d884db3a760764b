package codec

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Property tests for the v3 column codecs: encode∘decode is the identity
// (bit-exact for floats) over adversarial value sets, encoded output beats
// a gzip baseline on clustered input, and malformed payloads always panic
// ErrCorrupt rather than decoding silently or escaping Catch.

// roundTripInt64 encodes vals as a column and decodes it back.
func roundTripInt64(t *testing.T, vals []int64) {
	t.Helper()
	w := GetWriter()
	defer PutWriter(w)
	w.PutInt64Col(vals)
	got := Int64Col(w.Bytes(), len(vals), nil)
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], vals[i])
		}
	}
}

func roundTripFloat64(t *testing.T, vals []float64) {
	t.Helper()
	w := GetWriter()
	defer PutWriter(w)
	w.PutFloat64Col(vals)
	got := Float64Col(w.Bytes(), len(vals), nil)
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: got %x (%v), want %x (%v)",
				i, math.Float64bits(got[i]), got[i], math.Float64bits(vals[i]), vals[i])
		}
	}
}

func roundTripString(t *testing.T, vals []string) {
	t.Helper()
	w := GetWriter()
	defer PutWriter(w)
	w.PutStringCol(vals)
	got := stringColValues(w.Bytes(), len(vals))
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: got %q, want %q", i, got[i], vals[i])
		}
	}
}

// stringColValues decodes a string column through StringCol's indexes
// into a fresh dictionary and returns the strings they point at.
func stringColValues(payload []byte, n int) []string {
	idx, dict := StringCol(payload, n, nil, nil)
	out := make([]string, len(idx))
	for i, di := range idx {
		out[i] = dict[di]
	}
	return out
}

func TestInt64ColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]int64, 500)
	for i := range random {
		random[i] = rng.Int63() - rng.Int63()
	}
	cases := map[string][]int64{
		"empty":        {},
		"single":       {42},
		"constant":     {7, 7, 7, 7, 7},
		"monotone":     {1, 2, 3, 100, 101, 102},
		"non-monotone": {5, -3, 9, -100, 0, 9},
		// Timestamps are not guaranteed sorted or positive (satellite spec:
		// non-monotone and negative timestamps).
		"negative-times": {-1_600_000_000, -1_600_000_050, -1_600_000_001},
		"duplicates":     {3, 3, 1, 1, 3, 3},
		// Deltas overflow int64 and must wrap round-trip.
		"extremes": {math.MaxInt64, math.MinInt64, 0, math.MaxInt64, -1, math.MinInt64},
		"random":   random,
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { roundTripInt64(t, vals) })
	}
}

func TestFloat64ColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := make([]float64, 500)
	for i := range random {
		random[i] = rng.NormFloat64() * 1e6
	}
	quantized := make([]float64, 500)
	for i := range quantized {
		quantized[i] = float64(rng.Intn(360_000_000)-180_000_000) / 1e6
	}
	cases := map[string][]float64{
		"empty":    {},
		"single":   {-73.99},
		"constant": {40.7, 40.7, 40.7},
		// Antimeridian and pole-adjacent coordinates.
		"antimeridian": {179.999999, -180.0, 180.0, -179.999999},
		"extremes":     {math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64},
		"inf-nan":      {math.Inf(1), math.Inf(-1), math.NaN(), 0},
		// -0.0 must survive bit-exactly (the quant grid would lose the sign).
		"negative-zero": {0.0, math.Copysign(0, -1), 1.5},
		"nan-payloads": {
			math.Float64frombits(0x7ff8000000000001),
			math.Float64frombits(0xfff800000000cafe),
			1.0,
		},
		"gps-grid": quantized,
		"random":   random,
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { roundTripFloat64(t, vals) })
	}
}

func TestStringColRoundTrip(t *testing.T) {
	manyDistinct := make([]string, 300)
	for i := range manyDistinct {
		manyDistinct[i] = strings.Repeat("x", i%17) + string(rune('a'+i%26))
	}
	cases := map[string][]string{
		"empty":        {},
		"single":       {"taxi"},
		"constant":     {"yellow", "yellow", "yellow"},
		"low-card":     {"a", "b", "a", "c", "b", "a"},
		"empty-values": {"", "x", "", ""},
		"unicode":      {"東京", "ταξί", "🚕", "東京"},
		"hi-card":      manyDistinct,
	}
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { roundTripString(t, vals) })
	}
}

// TestDictBoundary pins the dictionary-size cliff: exactly maxDictSize
// distinct values still dictionary-encode; one more falls to plain. Both
// round-trip.
func TestDictBoundary(t *testing.T) {
	for _, distinct := range []int{maxDictSize, maxDictSize + 1} {
		vals := make([]string, 2*distinct)
		for i := range vals {
			vals[i] = strings.Repeat("v", 3) + string(rune(i%distinct))
		}
		roundTripString(t, vals)
		w := GetWriter()
		w.PutStringCol(vals)
		mode := w.Bytes()[0]
		PutWriter(w)
		if distinct <= maxDictSize && mode != colDict {
			t.Errorf("%d distinct: mode %d, want dict", distinct, mode)
		}
		if distinct > maxDictSize && mode != colPlain {
			t.Errorf("%d distinct: mode %d, want plain", distinct, mode)
		}
	}
}

// gzipLen returns len(gzip(b)), the baseline the column codecs must beat
// on clustered input.
func gzipLen(t *testing.T, b []byte) int {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestClusteredBeatsGzip: on Z-order-clustered input (sorted, near-equal
// neighbors — what partition blocks actually hold), delta varint columns
// must encode smaller than gzip over the equivalent row-major fixed-width
// bytes. This is the size half of the v3 bet; the speed half is the encode
// benchmark.
func TestClusteredBeatsGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4096
	ts := make([]int64, n)
	lon := make([]float64, n)
	tcur := int64(1_357_000_000)
	for i := range ts {
		tcur += rng.Int63n(30)
		ts[i] = tcur
		lon[i] = -74.0 + float64(i)/1e5 + float64(rng.Intn(100))/1e6
	}

	w := GetWriter()
	defer PutWriter(w)
	w.PutInt64Col(ts)
	colT := w.Len()
	w.PutFloat64Col(lon)
	colLon := w.Len() - colT

	raw := make([]byte, 0, 16*n)
	for i := range ts {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(ts[i]))
	}
	gzT := gzipLen(t, raw)
	raw = raw[:0]
	for i := range lon {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(lon[i]))
	}
	gzLon := gzipLen(t, raw)

	if colT >= gzT {
		t.Errorf("clustered timestamps: column %dB >= gzip %dB", colT, gzT)
	}
	if colLon >= gzLon {
		t.Errorf("clustered longitudes: column %dB >= gzip %dB", colLon, gzLon)
	}
	t.Logf("timestamps: column %dB vs gzip %dB; longitudes: column %dB vs gzip %dB",
		colT, gzT, colLon, gzLon)
}

// TestColumnDecodeRejectsMalformed drives the decoders with structurally
// broken payloads; each must panic ErrCorrupt (observed via Catch), never
// decode silently.
func TestColumnDecodeRejectsMalformed(t *testing.T) {
	w := GetWriter()
	defer PutWriter(w)
	w.PutInt64Col([]int64{1, 2, 3})
	valid := append([]byte{}, w.Bytes()...)

	cases := map[string]func(){
		"bad mode":          func() { Int64Col([]byte{0xee, 1, 2}, 2, nil) },
		"truncated":         func() { Int64Col(valid[:len(valid)-1], 3, nil) },
		"trailing bytes":    func() { Int64Col(append(append([]byte{}, valid...), 0), 3, nil) },
		"wrong count":       func() { Int64Col(valid, 2, nil) },
		"nonempty at n=0":   func() { Int64Col(valid, 0, nil) },
		"negative count":    func() { Int64Col(valid, -1, nil) },
		"giant count":       func() { Int64Col(valid, MaxColumnValues+1, nil) },
		"empty payload":     func() { Int64Col(nil, 3, nil) },
		"float bad scale":   func() { Float64Col([]byte{colQuant, 200, 2}, 1, nil) },
		"float bad mode":    func() { Float64Col([]byte{colDict, 0}, 1, nil) },
		"string bad mode":   func() { StringCol([]byte{colQuant, 0}, 1, nil, nil) },
		"dict zero entries": func() { StringCol([]byte{colDict, 0}, 1, nil, nil) },
		"dict index oob": func() {
			dw := GetWriter()
			defer PutWriter(dw)
			dw.buf = append(dw.buf, colDict)
			dw.PutUvarint(1)
			dw.PutString("only")
			dw.PutUvarint(9) // index past the 1-entry dictionary
			StringCol(dw.Bytes(), 1, nil, nil)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			if err := Catch(fn); err == nil {
				t.Fatal("malformed payload decoded without error")
			}
		})
	}
}

// TestColBlockPayloadSpans pins SetPayload's tiling validation: spans must
// exactly cover the stream.
func TestColBlockPayloadSpans(t *testing.T) {
	b := GetColBlock()
	defer PutColBlock(b)
	stream := []byte{1, 2, 3, 4, 5}
	if err := Catch(func() { b.SetPayload(stream, []int64{2, 3}) }); err != nil {
		t.Fatalf("exact tiling rejected: %v", err)
	}
	if got := b.PaySpan(1); !bytes.Equal(got, []byte{3, 4, 5}) {
		t.Fatalf("PaySpan(1) = %v", got)
	}
	for name, lens := range map[string][]int64{
		"short":    {2, 2},
		"long":     {2, 4},
		"negative": {-1, 6},
		// The running sum wraps int64 back to 5, the stream's length.
		"wrapping": {1, math.MaxInt64, math.MaxInt64, 6},
	} {
		if err := Catch(func() { b.SetPayload(stream, lens) }); err == nil {
			t.Fatalf("%s spans accepted", name)
		}
	}
}

// TestStringColSharesDictionary pins the read side's string column: the
// columns of several blocks decode into one dictionary, a dictionary or
// constant column's strings are added once however many blocks repeat
// them, and a plain column's values are added one each.
func TestStringColSharesDictionary(t *testing.T) {
	enc := func(vals []string) []byte {
		w := NewWriter(0)
		w.PutStringCol(vals)
		return w.Bytes()
	}
	blocks := [][]string{
		{"pickup", "dropoff", "pickup"},
		{"dropoff", "dropoff", "pickup", "dropoff"},
		{"pickup", "pickup"},
	}
	var idx []uint32
	var dict []string
	var want []string
	for _, vals := range blocks {
		at := len(idx)
		idx = slices.Grow(idx, len(vals))[:at+len(vals)]
		_, dict = StringCol(enc(vals), len(vals), idx[at:at+len(vals):at+len(vals)], dict)
		want = append(want, vals...)
	}
	if len(dict) != 2 {
		t.Fatalf("dictionary %q after three blocks of two strings, want 2 entries", dict)
	}
	for i, di := range idx {
		if dict[di] != want[i] {
			t.Fatalf("record %d: %q, want %q", i, dict[di], want[i])
		}
	}
	plain := make([]string, maxDictSize+1)
	for i := range plain {
		plain[i] = fmt.Sprint("v", i)
	}
	pidx, pdict := StringCol(enc(plain), len(plain), nil, dict)
	if len(pdict) != len(dict)+len(plain) || pdict[pidx[7]] != plain[7] {
		t.Fatalf("plain column of %d values grew the dictionary to %d entries", len(plain), len(pdict))
	}
}

// TestColBlockAppendPayload pins the file-wide payload: blocks whose
// streams are empty keep no offsets, the first non-empty stream starts
// them with the earlier records' empty spans, and every block's spans are
// validated as SetPayload's are.
func TestColBlockAppendPayload(t *testing.T) {
	b := new(ColBlock)
	addBlock := func(stream []byte, lens []int64) error {
		for range lens {
			b.IDs = append(b.IDs, 0)
		}
		return Catch(func() { b.AppendPayload(stream, lens) })
	}
	if err := addBlock(nil, []int64{0, 0}); err != nil || b.payOff != nil {
		t.Fatalf("empty block: %v, %d offsets", err, len(b.payOff))
	}
	if err := addBlock([]byte{1, 2, 3}, []int64{0, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := addBlock(nil, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := addBlock([]byte{4}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{nil, nil, nil, {1, 2}, {3}, nil, {4}}
	for i, w := range want {
		if got := b.PaySpan(i); !bytes.Equal(got, w) {
			t.Fatalf("PaySpan(%d) = %v, want %v", i, got, w)
		}
	}
	if err := addBlock([]byte{5}, []int64{2}); err == nil {
		t.Fatal("a span past its block's stream was accepted")
	}
	if err := Catch(func() { (&ColBlock{IDs: []int64{0}}).AppendPayload(nil, []int64{1}) }); err == nil {
		t.Fatal("a non-empty span over an empty stream was accepted")
	}
}

// TestColBlockSizeBytes pins a read-side block's resident size: its
// column slices, its dictionary's string headers and bytes, and its
// payload stream and offsets.
func TestColBlockSizeBytes(t *testing.T) {
	b := &ColBlock{
		IDs: make([]int64, 3, 4), Lon: make([]float64, 3), Lat: make([]float64, 3), T: make([]int64, 3),
		StrIdx: make([]uint32, 3), Dict: []string{"pickup", "dropoff"},
	}
	b.AppendPayload([]byte{1, 2, 3}, []int64{1, 0, 2})
	want := 8*int64(4+3+3+3) + 4*3 + 16*2 + int64(len("pickup")+len("dropoff")) +
		int64(cap(b.payBytes)) + 8*int64(cap(b.payOff))
	if got := b.SizeBytes(); got != want || len(b.payOff) != 4 {
		t.Fatalf("SizeBytes = %d, want %d (%d offsets)", got, want, len(b.payOff))
	}
}

// FuzzColumnCodecs drives all three column decoders plus the framed
// round-trip from one corpus. Invariants: decoders never panic outside
// Catch; each decoder returns what its per-value reference decoder
// returns, bit for bit, or fails exactly when the reference fails; values
// derived from the input round-trip exactly; and a single byte flip
// anywhere in a CRC-framed column is always caught.
func FuzzColumnCodecs(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{colConst, 2}, uint16(1))
	f.Add([]byte{colDelta, 2, 1, 1}, uint16(3))
	f.Add([]byte{colDict, 1, 1, 'a', 0, 0}, uint16(2))
	w := GetWriter()
	w.PutFloat64Col([]float64{-74.0, -74.000001, 40.7})
	f.Add(append([]byte{}, w.Bytes()...), uint16(3))
	PutWriter(w)
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16) {
		n := int(n16)
		// 1. Arbitrary bytes through every decoder: ErrCorrupt or success,
		// never an escaped panic. A successful decode must return n values.
		if err := Catch(func() {
			if got := Int64Col(data, n, nil); len(got) != n {
				t.Fatalf("Int64Col returned %d values for n=%d", len(got), n)
			}
		}); err != nil {
			_ = err
		}
		_ = Catch(func() { Float64Col(data, n, nil) })
		_ = Catch(func() { StringCol(data, n, nil, nil) })
		checkColumnOracle(t, data, n)

		// 2. Round-trip identity over values derived from the input.
		if len(data) > 0 {
			ints := make([]int64, 0, len(data)/2)
			floats := make([]float64, 0, len(data)/8)
			for i := 0; i+1 < len(data); i += 2 {
				ints = append(ints, int64(int16(binary.LittleEndian.Uint16(data[i:])))<<int(data[i]%48))
			}
			for i := 0; i+8 <= len(data); i += 8 {
				floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			}
			rw := GetWriter()
			rw.PutInt64Col(ints)
			got := Int64Col(rw.Bytes(), len(ints), nil)
			for i := range ints {
				if got[i] != ints[i] {
					t.Fatalf("int round-trip: [%d] = %d, want %d", i, got[i], ints[i])
				}
			}
			rw.Reset()
			rw.PutFloat64Col(floats)
			gotF := Float64Col(rw.Bytes(), len(floats), nil)
			for i := range floats {
				if math.Float64bits(gotF[i]) != math.Float64bits(floats[i]) {
					t.Fatalf("float round-trip: [%d] bits differ", i)
				}
			}

			// 3. CRC framing: flip one byte (position chosen by the input)
			// of a framed int column; Frame() must reject it.
			rw.Reset()
			rw.PutInt64Col(ints)
			fw := GetWriter()
			fw.PutFrame(rw.Bytes())
			framed := append([]byte{}, fw.Bytes()...)
			PutWriter(fw)
			PutWriter(rw)
			pos := int(n16) % len(framed)
			framed[pos] ^= 0x5a
			err := Catch(func() {
				r := NewReader(framed)
				payload := r.Frame()
				if r.Remaining() != 0 {
					r.corrupt()
				}
				Int64Col(payload, len(ints), nil)
			})
			if err == nil {
				t.Fatalf("byte flip at %d of framed column went undetected", pos)
			}
		}
	})
}
