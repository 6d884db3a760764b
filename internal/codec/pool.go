package codec

import "sync"

// Buffer pools shared by the codec's callers — the storage block
// writer/reader, the engine's shuffle scratch, and anything else that
// encodes or decodes in a hot loop. Pooling turns the per-call
// allocations of those paths into amortized reuse; ownership is strict:
// a Get hands the caller exclusive use, a Put ends it, and nothing the
// caller retains may alias the pooled memory afterwards.

// maxPooledWriterCap bounds the capacity a Writer may keep when returned
// to the pool. Occasional jumbo encodings (a multi-megabyte shuffle
// buffer) would otherwise pin their peak footprint forever.
const maxPooledWriterCap = 1 << 20

// maxPooledBufCap is the same bound for raw byte buffers, sized for the
// storage layer's block payloads (blocks are ~tens of KiB), with headroom
// for files written with large blocks.
const maxPooledBufCap = 8 << 20

var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 4096)} },
}

// GetWriter returns an empty Writer from the pool. Pair with PutWriter
// once every byte the caller needs has been copied out — Bytes() aliases
// the pooled buffer.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns w to the pool. Oversized buffers are dropped so a one-off
// giant encoding does not stay resident. Nil is accepted and ignored.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledWriterCap {
		return
	}
	writerPool.Put(w)
}

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// GetBuf returns a byte slice of length n from the pool, growing the pooled
// allocation when it is too small. Contents are unspecified; callers
// overwrite before reading. Pair with PutBuf.
func GetBuf(n int) []byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}

// PutBuf returns a slice obtained from GetBuf to the pool. Slices the
// caller did not get from GetBuf are accepted too (they seed the pool),
// but oversized ones are dropped.
func PutBuf(b []byte) {
	if b == nil || cap(b) > maxPooledBufCap {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
