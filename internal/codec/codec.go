// Package codec implements the compact binary serialization used by the
// engine's shuffles and the on-disk store. Spark pays a real CPU cost to
// serialize every shuffled record; charging the same cost here is what makes
// the engine an honest stand-in — ST4ML's shuffle-avoiding designs win for
// the same reason they win on Spark.
//
// A Codec[T] is a pair of encode/decode functions over a byte buffer.
// Codecs compose: PairOf, SliceOf and MapOf build codecs for
// aggregate types from element codecs, and domain packages (geom, instance)
// export codecs for their types.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer accumulates encoded bytes.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the given initial capacity.
func NewWriter(capacity int) *Writer { return &Writer{buf: make([]byte, 0, capacity)} }

// Bytes returns the accumulated encoding. The slice aliases the writer's
// buffer and is invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the writer for reuse, keeping the allocation.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// PutUvarint appends v in unsigned varint encoding.
func (w *Writer) PutUvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// PutVarint appends v in zig-zag varint encoding.
func (w *Writer) PutVarint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// PutFloat64 appends v as 8 little-endian bytes.
func (w *Writer) PutFloat64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// PutBool appends a single 0/1 byte.
func (w *Writer) PutBool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// PutString appends a length-prefixed UTF-8 string.
func (w *Writer) PutString(s string) {
	w.PutUvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// PutRaw appends b verbatim, with no length prefix. Callers use it to move
// already-encoded records between buffers.
func (w *Writer) PutRaw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes values from a byte slice. Decoding past the end or reading
// malformed data panics with ErrCorrupt; the engine recovers panics at task
// boundaries, and the store converts them to errors via Catch.
type Reader struct {
	b   []byte
	off int
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// ResetBytes repoints the reader at b, rewound to the start. Hot decode
// loops (one payload span per record) reuse a single Reader this way
// instead of allocating one per record.
func (r *Reader) ResetBytes(b []byte) {
	r.b = b
	r.off = 0
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// ErrCorrupt is the panic value raised on malformed input.
type ErrCorrupt struct{ Off int }

func (e ErrCorrupt) Error() string { return fmt.Sprintf("codec: corrupt data at offset %d", e.Off) }

func (r *Reader) corrupt() { panic(ErrCorrupt{Off: r.off}) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.corrupt()
	}
	r.off += n
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.corrupt()
	}
	r.off += n
	return v
}

// Float64 reads 8 little-endian bytes as a float64.
func (r *Reader) Float64() float64 {
	if r.off+8 > len(r.b) {
		r.corrupt()
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	if r.off >= len(r.b) {
		r.corrupt()
	}
	v := r.b[r.off]
	r.off++
	if v > 1 {
		r.corrupt()
	}
	return v == 1
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.Uvarint())
	if n < 0 || n > r.Remaining() {
		r.corrupt()
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Codec serializes values of type T.
type Codec[T any] struct {
	Enc func(w *Writer, v T)
	Dec func(r *Reader) T
	// Col, when non-nil, is the record type's columnar decomposition: it
	// lets the storage layer lay blocks out struct-of-arrays (format v3)
	// instead of row-wise. Codecs without one still work everywhere — v3
	// files then fall back to a generic row-payload layout.
	Col *Columnar[T]
}

// Marshal encodes v into a fresh byte slice.
func Marshal[T any](c Codec[T], v T) []byte {
	w := NewWriter(64)
	c.Enc(w, v)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	return out
}

// Unmarshal decodes a value encoded by Marshal. The error reports
// corruption or trailing garbage.
func Unmarshal[T any](c Codec[T], b []byte) (v T, err error) {
	err = Catch(func() {
		r := NewReader(b)
		v = c.Dec(r)
		if r.Remaining() != 0 {
			panic(ErrCorrupt{Off: r.off})
		}
	})
	return v, err
}

// Catch runs fn, converting an ErrCorrupt panic into an error. Other panics
// propagate.
func Catch(fn func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if ce, ok := rec.(ErrCorrupt); ok {
				err = ce
				return
			}
			panic(rec)
		}
	}()
	fn()
	return nil
}

// Primitive codecs.
var (
	// Int64 encodes int64 as zig-zag varints.
	Int64 = Codec[int64]{
		Enc: func(w *Writer, v int64) { w.PutVarint(v) },
		Dec: func(r *Reader) int64 { return r.Varint() },
	}
	// Int encodes int as zig-zag varints.
	Int = Codec[int]{
		Enc: func(w *Writer, v int) { w.PutVarint(int64(v)) },
		Dec: func(r *Reader) int { return int(r.Varint()) },
	}
	// Uint64 encodes uint64 as unsigned varints.
	Uint64 = Codec[uint64]{
		Enc: func(w *Writer, v uint64) { w.PutUvarint(v) },
		Dec: func(r *Reader) uint64 { return r.Uvarint() },
	}
	// Float64 encodes float64 as fixed 8 bytes.
	Float64 = Codec[float64]{
		Enc: func(w *Writer, v float64) { w.PutFloat64(v) },
		Dec: func(r *Reader) float64 { return r.Float64() },
	}
	// String encodes length-prefixed strings.
	String = Codec[string]{
		Enc: func(w *Writer, v string) { w.PutString(v) },
		Dec: func(r *Reader) string { return r.String() },
	}
	// Bool encodes a single byte.
	Bool = Codec[bool]{
		Enc: func(w *Writer, v bool) { w.PutBool(v) },
		Dec: func(r *Reader) bool { return r.Bool() },
	}
)

// Pair is a generic 2-tuple, the record type of keyed shuffles.
type Pair[K, V any] struct {
	Key   K
	Value V
}

// KV is a convenience constructor for Pair.
func KV[K, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

// PairOf builds a codec for Pair[K, V] from element codecs.
func PairOf[K, V any](kc Codec[K], vc Codec[V]) Codec[Pair[K, V]] {
	return Codec[Pair[K, V]]{
		Enc: func(w *Writer, p Pair[K, V]) {
			kc.Enc(w, p.Key)
			vc.Enc(w, p.Value)
		},
		Dec: func(r *Reader) Pair[K, V] {
			return Pair[K, V]{Key: kc.Dec(r), Value: vc.Dec(r)}
		},
	}
}

// SliceOf builds a codec for []T from an element codec. Nil decodes from
// length 0 as an empty non-nil slice.
func SliceOf[T any](c Codec[T]) Codec[[]T] {
	return Codec[[]T]{
		Enc: func(w *Writer, vs []T) {
			w.PutUvarint(uint64(len(vs)))
			for _, v := range vs {
				c.Enc(w, v)
			}
		},
		Dec: func(r *Reader) []T {
			n := int(r.Uvarint())
			out := make([]T, n)
			for i := 0; i < n; i++ {
				out[i] = c.Dec(r)
			}
			return out
		},
	}
}

// MapOf builds a codec for map[K]V. Iteration order is randomized by Go, so
// encodings of equal maps may differ; decode produces an equal map.
func MapOf[K comparable, V any](kc Codec[K], vc Codec[V]) Codec[map[K]V] {
	return Codec[map[K]V]{
		Enc: func(w *Writer, m map[K]V) {
			w.PutUvarint(uint64(len(m)))
			for k, v := range m {
				kc.Enc(w, k)
				vc.Enc(w, v)
			}
		},
		Dec: func(r *Reader) map[K]V {
			n := int(r.Uvarint())
			m := make(map[K]V, n)
			for i := 0; i < n; i++ {
				k := kc.Dec(r)
				m[k] = vc.Dec(r)
			}
			return m
		},
	}
}

// StringMap is a codec for map[string]string, the auxiliary-attribute bag
// carried by dataset records.
var StringMap = MapOf(String, String)
