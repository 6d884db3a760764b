package codec

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"st4ml/internal/index"
)

// Column codecs for the storage layer's v3 block format: each block is
// decomposed struct-of-arrays into independent column streams (ids, lon,
// lat, t, optional string attribute, residual payload), and every column
// picks the cheapest encoding its values admit. Z-order-clustered ST
// records make neighboring values near-equal, so delta + zigzag varints
// shrink them far below gzip at a fraction of the decode cost — the
// "cheap ST-native compression" the ROADMAP calls for.
//
// A column payload is: one mode byte, then mode-specific data. Modes:
//
//	const  — every value equal; one value stored.
//	delta  — first value, then zigzag varints of successive differences
//	         (two's-complement wrapping, so any int64 sequence round-trips).
//	quant  — floats sitting on a decimal grid: a scale exponent, then the
//	         delta stream of the scaled integers. Chosen only when every
//	         value survives a bit-exact round trip (so -0.0, NaN and
//	         off-grid values fall through).
//	bits   — float64 bit patterns delta-encoded as varints; bit-exact for
//	         any input including NaN payloads and infinities.
//	dict   — low-cardinality strings: the dictionary in first-appearance
//	         order, then one uvarint index per value.
//	plain  — length-prefixed strings back to back.
//
// Decoders validate everything (mode bytes, scale exponents, dictionary
// indexes, exact payload consumption) and panic ErrCorrupt on any
// violation; callers run under Catch. Integrity framing (PutFrame) is the
// storage layer's job — one frame per column stream.

// Column mode bytes.
const (
	colConst byte = iota
	colDelta
	colQuant
	colBits
	colDict
	colPlain
)

// MaxColumnValues caps the value count a single column (and hence a v3
// block) may carry. Real blocks hold a few thousand records; the cap
// stops a corrupt or adversarial count from driving allocation.
const MaxColumnValues = 1 << 22

// maxDictSize bounds dictionary cardinality; beyond it plain encoding is
// at least as compact and far simpler.
const maxDictSize = 255

// colCheckN validates a decode-side value count.
func colCheckN(n int) {
	if n < 0 || n > MaxColumnValues {
		panic(ErrCorrupt{Off: 0})
	}
}

// colByte reads a column mode (or scale) byte.
func (r *Reader) colByte() byte {
	if r.off >= len(r.b) {
		r.corrupt()
	}
	v := r.b[r.off]
	r.off++
	return v
}

// PutInt64Col appends the column encoding of vals. An empty column
// encodes to zero bytes.
func (w *Writer) PutInt64Col(vals []int64) {
	if len(vals) == 0 {
		return
	}
	allEq := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			allEq = false
			break
		}
	}
	if allEq {
		w.buf = append(w.buf, colConst)
		w.PutVarint(vals[0])
		return
	}
	w.buf = append(w.buf, colDelta)
	w.PutVarint(vals[0])
	prev := vals[0]
	for _, v := range vals[1:] {
		// Go's signed subtraction wraps two's-complement, so the delta
		// stream round-trips even across int64 overflow.
		w.PutVarint(v - prev)
		prev = v
	}
}

// Int64Col decodes a column of n int64s from payload (a full column
// stream, typically one verified frame), appending into dst's capacity.
// Malformed input — bad mode, short data, trailing bytes — panics
// ErrCorrupt.
func Int64Col(payload []byte, n int, dst []int64) []int64 {
	colCheckN(n)
	if n == 0 {
		if len(payload) != 0 {
			panic(ErrCorrupt{Off: 0})
		}
		return dst[:0]
	}
	out := slices.Grow(dst[:0], n)[:n]
	r := NewReader(payload)
	switch r.colByte() {
	case colConst:
		v := r.Varint()
		for i := range out {
			out[i] = v
		}
	case colDelta:
		// The first value is a delta from zero, so one running sum over
		// the whole stream rebuilds every value.
		r.off = varintRun(payload, r.off, 0, out)
	default:
		panic(ErrCorrupt{Off: 0})
	}
	if r.Remaining() != 0 {
		r.corrupt()
	}
	return out
}

// varintRun decodes len(out) zig-zag varints from b[off:] as a running
// sum — out[i] is sum plus the first i+1 values, wrapping two's-complement
// — and returns the offset past the last one. It is the column decoders'
// one varint kernel: the 1-, 2- and 3-byte encodings, which carry nearly
// every delta of a clustered column, decode inline, and anything longer
// goes through binary.Uvarint, so the kernel accepts exactly what
// binary.Varint does — the same values and lengths, non-canonical
// encodings included — and panics ErrCorrupt, at the failing varint's
// offset, on short input and on overlong input (an 11th byte, or a 10th
// byte above 1).
func varintRun(b []byte, off int, sum int64, out []int64) int {
	for i := range out {
		var x uint64
		switch {
		case off < len(b) && b[off] < 0x80:
			x = uint64(b[off])
			off++
		case off+1 < len(b) && b[off+1] < 0x80:
			x = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		case off+2 < len(b) && b[off+2] < 0x80:
			x = uint64(b[off]&0x7f) | uint64(b[off+1]&0x7f)<<7 | uint64(b[off+2])<<14
			off += 3
		default:
			v, n := binary.Uvarint(b[off:])
			if n <= 0 {
				panic(ErrCorrupt{Off: off})
			}
			x = v
			off += n
		}
		sum += int64(x>>1) ^ -int64(x&1)
		out[i] = sum
	}
	return off
}

// floatRunChunk is how many running sums Float64Col decodes into a stack
// buffer before converting them to floats.
const floatRunChunk = 256

// floatRun fills out from the varint running sum starting at sum in
// b[off:] and returns the offset past the last varint. Each sum is the
// bit pattern of its float when bits is set (a wrapping int64 sum is the
// same bits as a uint64 one), else the integer a quant column scales by
// 1/scale. The sums go through a stack buffer a chunk at a time, so a
// float column decodes with the integer columns' kernel and no
// allocation.
func floatRun(b []byte, off int, sum int64, out []float64, bits bool, scale float64) int {
	var buf [floatRunChunk]int64
	for len(out) > 0 {
		sums := buf[:min(len(out), len(buf))]
		off = varintRun(b, off, sum, sums)
		if bits {
			for i, v := range sums {
				out[i] = math.Float64frombits(uint64(v))
			}
		} else {
			for i, v := range sums {
				out[i] = float64(v) / scale
			}
		}
		sum = sums[len(sums)-1]
		out = out[len(sums):]
	}
	return off
}

// pow10 are the decimal grids the quant mode probes, up to 1e-7 — finer
// than any GPS fix; coordinates beyond that precision fall to bits mode.
var pow10 = [...]float64{1, 10, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7}

// maxQuantMagnitude bounds the scaled integers so they stay exactly
// representable in a float64 during the round-trip check.
const maxQuantMagnitude = 1 << 52

// quantScale returns the smallest decimal scale exponent under which
// every value round-trips bit-exactly through its scaled integer, or
// ok=false when no grid fits (off-grid values, NaN, ±Inf, -0.0).
func quantScale(vals []float64) (byte, bool) {
outer:
	for e := range pow10 {
		s := pow10[e]
		for _, v := range vals {
			q := math.Round(v * s)
			if math.IsNaN(q) || q < -maxQuantMagnitude || q > maxQuantMagnitude {
				continue outer
			}
			// The decoder computes float64(int64)/s, so the check must go
			// through the integer too: it catches -0.0 (int 0 decodes to
			// +0.0) as well as off-grid values.
			if math.Float64bits(float64(int64(q))/s) != math.Float64bits(v) {
				continue outer
			}
		}
		return byte(e), true
	}
	return 0, false
}

// PutFloat64Col appends the column encoding of vals: const when uniform,
// quant when a decimal grid reproduces every bit, bit-pattern deltas
// otherwise. All three are bit-exact.
func (w *Writer) PutFloat64Col(vals []float64) {
	if len(vals) == 0 {
		return
	}
	bits0 := math.Float64bits(vals[0])
	allEq := true
	for _, v := range vals[1:] {
		if math.Float64bits(v) != bits0 {
			allEq = false
			break
		}
	}
	if allEq {
		w.buf = append(w.buf, colConst)
		w.PutFloat64(vals[0])
		return
	}
	if e, ok := quantScale(vals); ok {
		w.buf = append(w.buf, colQuant, e)
		s := pow10[e]
		prev := int64(0)
		for i, v := range vals {
			q := int64(math.Round(v * s))
			if i == 0 {
				w.PutVarint(q)
			} else {
				w.PutVarint(q - prev)
			}
			prev = q
		}
		return
	}
	w.buf = append(w.buf, colBits)
	prev := uint64(0)
	for i, v := range vals {
		b := math.Float64bits(v)
		if i == 0 {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, b)
		} else {
			w.PutVarint(int64(b - prev))
		}
		prev = b
	}
}

// Float64Col decodes a column of n float64s from payload, appending into
// dst's capacity. Panics ErrCorrupt on malformed input.
func Float64Col(payload []byte, n int, dst []float64) []float64 {
	colCheckN(n)
	if n == 0 {
		if len(payload) != 0 {
			panic(ErrCorrupt{Off: 0})
		}
		return dst[:0]
	}
	out := slices.Grow(dst[:0], n)[:n]
	r := NewReader(payload)
	switch r.colByte() {
	case colConst:
		v := r.Float64()
		for i := range out {
			out[i] = v
		}
	case colQuant:
		e := r.colByte()
		if int(e) >= len(pow10) {
			r.corrupt()
		}
		r.off = floatRun(payload, r.off, 0, out, false, pow10[e])
	case colBits:
		b := r.Float64()
		out[0] = b
		r.off = floatRun(payload, r.off, int64(math.Float64bits(b)), out[1:], true, 0)
	default:
		panic(ErrCorrupt{Off: 0})
	}
	if r.Remaining() != 0 {
		r.corrupt()
	}
	return out
}

// PutStringCol appends the column encoding of vals: const when uniform,
// dictionary-coded when cardinality is low, plain otherwise.
func (w *Writer) PutStringCol(vals []string) {
	if len(vals) == 0 {
		return
	}
	allEq := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			allEq = false
			break
		}
	}
	if allEq {
		w.buf = append(w.buf, colConst)
		w.PutString(vals[0])
		return
	}
	idx := make(map[string]int, 16)
	var dict []string
	for _, s := range vals {
		if _, ok := idx[s]; !ok {
			if len(dict) >= maxDictSize {
				dict = nil
				break
			}
			idx[s] = len(dict)
			dict = append(dict, s)
		}
	}
	if dict != nil && len(dict) < len(vals) {
		w.buf = append(w.buf, colDict)
		w.PutUvarint(uint64(len(dict)))
		for _, s := range dict {
			w.PutString(s)
		}
		for _, s := range vals {
			w.PutUvarint(uint64(idx[s]))
		}
		return
	}
	w.buf = append(w.buf, colPlain)
	for _, s := range vals {
		w.PutString(s)
	}
}

// StringCol decodes a column of n strings from payload, appending into
// dst's capacity. Panics ErrCorrupt on malformed input, including
// out-of-range dictionary indexes.
func StringCol(payload []byte, n int, dst []string) []string {
	colCheckN(n)
	if n == 0 {
		if len(payload) != 0 {
			panic(ErrCorrupt{Off: 0})
		}
		return dst[:0]
	}
	out := slices.Grow(dst[:0], n)[:n]
	r := NewReader(payload)
	switch r.colByte() {
	case colConst:
		v := r.String()
		for i := range out {
			out[i] = v
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
		for i := range out {
			// An index below 128 is one byte.
			var di uint64
			if r.off < len(r.b) && r.b[r.off] < 0x80 {
				di = uint64(r.b[r.off])
				r.off++
			} else {
				di = r.Uvarint()
			}
			if di >= uint64(dn) {
				r.corrupt()
			}
			out[i] = dict[di]
		}
	case colPlain:
		for i := range out {
			out[i] = r.String()
		}
	default:
		panic(ErrCorrupt{Off: 0})
	}
	if r.Remaining() != 0 {
		r.corrupt()
	}
	return out
}

// ColBlock is the struct-of-arrays decomposition of one block of records:
// the shared columns every ST schema has (id, lon, lat, t, one optional
// string attribute) plus a residual payload stream holding whatever a
// schema encodes beyond them. A writer fills it via Columnar.Split and
// EndRecord; a reader rebuilds records via Columnar.Join.
type ColBlock struct {
	IDs      []int64
	Lon, Lat []float64
	T        []int64
	Str      []string
	// PayLen[i] is the byte length of record i's span in the payload
	// stream (write side: closed by EndRecord; read side: decoded).
	PayLen []int64
	// Pay accumulates the residual payload stream on the write side.
	Pay Writer
	// payMark is where the current record's payload span began.
	payMark int
	// payBytes/payOff are the read side: the payload stream and the
	// prefix offsets of each record's span within it.
	payBytes []byte
	payOff   []int64
}

// Reset clears the block for reuse, keeping allocations.
func (b *ColBlock) Reset() {
	b.IDs = b.IDs[:0]
	b.Lon = b.Lon[:0]
	b.Lat = b.Lat[:0]
	b.T = b.T[:0]
	b.Str = b.Str[:0]
	b.PayLen = b.PayLen[:0]
	b.Pay.Reset()
	b.payMark = 0
	b.payBytes = nil
	b.payOff = b.payOff[:0]
}

// EndRecord closes the current record's payload span: everything written
// to Pay since the previous EndRecord belongs to it.
func (b *ColBlock) EndRecord() {
	b.PayLen = append(b.PayLen, int64(b.Pay.Len()-b.payMark))
	b.payMark = b.Pay.Len()
}

// SetPayload installs the read-side payload stream and its decoded span
// lengths, validating that the spans exactly tile the stream. Panics
// ErrCorrupt when they do not.
func (b *ColBlock) SetPayload(stream []byte, lens []int64) {
	b.payOff = b.payOff[:0]
	off := int64(0)
	b.payOff = append(b.payOff, 0)
	for _, l := range lens {
		// Compared against what is left, not as off+l, which a pair of
		// huge lengths can wrap back into range.
		if l < 0 || l > int64(len(stream))-off {
			panic(ErrCorrupt{Off: int(off)})
		}
		off += l
		b.payOff = append(b.payOff, off)
	}
	if off != int64(len(stream)) {
		panic(ErrCorrupt{Off: int(off)})
	}
	b.payBytes = stream
	b.PayLen = append(b.PayLen[:0], lens...)
}

// PaySpan returns record i's slice of the read-side payload stream. The
// slice aliases the stream passed to SetPayload.
func (b *ColBlock) PaySpan(i int) []byte {
	return b.payBytes[b.payOff[i]:b.payOff[i+1]]
}

// Columnar describes how a record type decomposes into a ColBlock — the
// optional schema a Codec carries to opt into the v3 columnar layout.
type Columnar[T any] struct {
	// Point marks that (Lon[i], Lat[i], T[i]) is record i's exact ST
	// extent, so a reader may filter records against query windows on the
	// decoded columns alone, before Join materializes them, and a pinned
	// partition takes the record's box from the same columns — the box
	// must equal, bit for bit, the one the schema's box function gives
	// the joined record. Leave false for extended records (trajectories)
	// whose extent the columns only summarize; those filter through Extent
	// instead.
	Point bool
	// HasStr marks that Split fills the Str column (the schema's
	// dictionary-friendly string attribute).
	HasStr bool
	// Split appends exactly one value to each column the schema uses
	// (IDs, Lon, Lat, T, and Str iff HasStr) and writes any residual
	// fields to b.Pay. The caller closes the payload span with EndRecord.
	Split func(rec T, b *ColBlock)
	// Join rebuilds record i from the decoded columns; pay is positioned
	// over the record's payload span and must be fully consumed.
	Join func(b *ColBlock, i int, pay *Reader) T
	// Extent, optional for extended records (Point false), returns record
	// i's exact ST box from the decoded columns and its payload span
	// without building the record or allocating; pay is positioned as for
	// Join and must be fully consumed. A reader drops records whose extent
	// misses every query window before Join, so Extent must equal, bit for
	// bit, the box callers filter the joined record by.
	Extent func(b *ColBlock, i int, pay *Reader) index.Box
}

// colBlockPool recycles ColBlocks across partition writes and reads; the
// column slices and payload buffers inside are the hot-loop allocations.
var colBlockPool = sync.Pool{New: func() any { return new(ColBlock) }}

// GetColBlock returns an empty ColBlock from the pool; pair with
// PutColBlock.
func GetColBlock() *ColBlock {
	b := colBlockPool.Get().(*ColBlock)
	b.Reset()
	return b
}

// PutColBlock returns b to the pool. Oversized blocks are dropped so a
// one-off giant block does not stay resident.
func PutColBlock(b *ColBlock) {
	if b == nil || cap(b.IDs) > maxPooledWriterCap || cap(b.Pay.buf) > maxPooledBufCap {
		return
	}
	b.payBytes = nil // never retain a caller's stream
	colBlockPool.Put(b)
}
