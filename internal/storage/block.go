package storage

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sync"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// Storage format v2 (see DESIGN.md "Storage format v2"): a partition file
// is a sequence of independently-compressed, CRC-framed blocks of ~N
// records, closed by a framed footer that records every block's byte
// range, record count, and ST bounds. The footer is what lets a reader
// skip — not just avoid decoding, but avoid even decompressing — blocks
// whose bounds miss the query window, pushing the paper's §4.1
// partition-granularity pruning down to row-group granularity (Fig. 5c/d
// shows 42–98 % of loaded data is irrelevant at small ranges; that waste
// lived inside the partitions v1 could only read whole).
//
//	+------+---------+---------+     +---------+----------------+---------+------+
//	| STB2 | frame 0 | frame 1 | ... | frame k | frame( footer ) | off u64 | 2BTS |
//	+------+---------+---------+     +---------+----------------+---------+------+
//	 magic   block 0   block 1         block k   block index       trailer
//
// Every frame is the codec package's uvarint(len) + CRC32-C + payload
// envelope; block payloads are gzip streams when the dataset is
// compressed, raw record encodings otherwise. The 12-byte trailer is a
// fixed-width pointer to the footer frame plus a closing magic, so a
// reader seeks straight to the block index without scanning.

const (
	// v2Magic opens every v2 partition file.
	v2Magic = "STB2"
	// v2TrailerMagic closes it; distinct from the header so a truncation
	// that happens to end on the header magic still fails.
	v2TrailerMagic = "2BTS"
	// v2TrailerLen is the fixed trailer: 8-byte little-endian footer
	// offset + 4-byte magic.
	v2TrailerLen = 12
	// v2HeaderLen is the header magic length.
	v2HeaderLen = 4
)

// FormatVersion is the version number written into new dataset metadata:
// the columnar v3 layout of blockv3.go, the only format Write produces.
// v1 and v2 datasets stay readable through their legacy paths.
const FormatVersion = 3

// DefaultBlockRecords was the v2 layout's records-per-block default. Appends
// and compactions still use it on datasets whose metadata records no block
// size (v1), so files they add keep the granularity those datasets always
// had. New datasets default to the finer DefaultBlockRecordsV3.
const DefaultBlockRecords = 4096

// BlockMeta describes one block of a v2 partition file, as recorded in
// the file's footer.
type BlockMeta struct {
	// Offset is the block frame's byte offset from the file start.
	Offset int64
	// Stored is the framed length on disk (envelope included).
	Stored int64
	// Raw is the decompressed payload length.
	Raw int64
	// Count is the number of records encoded in the block.
	Count int64
	// Bounds is the union of the block's record ST boxes (empty for a
	// block of boundless records, which then never survives pruning).
	Bounds index.Box
}

// encodeFooter appends the block index to w in its wire form.
func encodeFooter(w *codec.Writer, blocks []BlockMeta) {
	w.PutUvarint(uint64(len(blocks)))
	for _, b := range blocks {
		w.PutUvarint(uint64(b.Offset))
		w.PutUvarint(uint64(b.Stored))
		w.PutUvarint(uint64(b.Raw))
		w.PutUvarint(uint64(b.Count))
		for i := 0; i < index.Dims; i++ {
			w.PutFloat64(b.Bounds.Min[i])
		}
		for i := 0; i < index.Dims; i++ {
			w.PutFloat64(b.Bounds.Max[i])
		}
	}
}

// minFooterEntry is the smallest possible wire size of one footer entry:
// four 1-byte uvarints plus six 8-byte floats. Used to reject absurd
// block counts before allocating.
const minFooterEntry = 4 + 6*8

// decodeFooter parses a footer payload. Malformed input panics with
// codec.ErrCorrupt (callers run under codec.Catch); structural
// impossibilities — counts that cannot fit the payload, offsets outside
// the block region, overlapping or unordered blocks — are corruption too.
func decodeFooter(payload []byte, blockRegionEnd int64) []BlockMeta {
	r := codec.NewReader(payload)
	n := int(r.Uvarint())
	if n < 0 || n*minFooterEntry > r.Remaining() {
		panic(codec.ErrCorrupt{Off: 0})
	}
	blocks := make([]BlockMeta, n)
	prevEnd := int64(v2HeaderLen)
	for i := range blocks {
		b := BlockMeta{
			Offset: int64(r.Uvarint()),
			Stored: int64(r.Uvarint()),
			Raw:    int64(r.Uvarint()),
			Count:  int64(r.Uvarint()),
		}
		for d := 0; d < index.Dims; d++ {
			b.Bounds.Min[d] = r.Float64()
		}
		for d := 0; d < index.Dims; d++ {
			b.Bounds.Max[d] = r.Float64()
		}
		if b.Offset < prevEnd || b.Stored <= 0 || b.Raw < 0 || b.Count < 0 ||
			b.Offset+b.Stored > blockRegionEnd {
			panic(codec.ErrCorrupt{Off: len(payload) - r.Remaining()})
		}
		prevEnd = b.Offset + b.Stored
		blocks[i] = b
	}
	if r.Remaining() != 0 {
		panic(codec.ErrCorrupt{Off: len(payload) - r.Remaining()})
	}
	return blocks
}

// Gzip readers are pooled: Reset-able and expensive to construct (each
// allocates its window).
var gzReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

// gunzipInto decompresses src into a pooled buffer of exactly rawLen
// bytes, failing if the stream is shorter or longer than the footer
// promised. The caller owns the returned buffer (PutBuf when done).
func gunzipInto(src []byte, rawLen int64) ([]byte, error) {
	gz := gzReaderPool.Get().(*gzip.Reader)
	defer gzReaderPool.Put(gz)
	if err := gz.Reset(bytes.NewReader(src)); err != nil {
		return nil, err
	}
	raw := codec.GetBuf(int(rawLen))
	if _, err := io.ReadFull(gz, raw); err != nil {
		codec.PutBuf(raw)
		return nil, err
	}
	// The stream must end exactly where the footer said it would.
	var one [1]byte
	if n, err := gz.Read(one[:]); n != 0 || err != io.EOF {
		codec.PutBuf(raw)
		return nil, fmt.Errorf("storage: block longer than footer raw length %d", rawLen)
	}
	if err := gz.Close(); err != nil {
		codec.PutBuf(raw)
		return nil, err
	}
	return raw, nil
}

// blockOut is one fetched block handed from the prefetcher to the
// decoder: the decompressed payload plus the pooled buffers to release
// after decoding.
type blockOut struct {
	bm     BlockMeta
	raw    []byte // decoded payload (aliases stored when uncompressed)
	stored []byte // pooled on-disk bytes
	pooled bool   // raw is a separate pooled buffer (compressed path)
	err    error
}

// release returns the block's pooled buffers.
func (b *blockOut) release() {
	if b.pooled {
		codec.PutBuf(b.raw)
	}
	codec.PutBuf(b.stored)
}

// prefetchDepth bounds how many blocks the prefetcher may hold fetched,
// verified, and decompressed ahead of the decoder; prefetchWorkers is how
// many of those it works on concurrently. Together they overlap the next
// blocks' decompression with the current block's decode while capping
// resident scratch at depth × block size.
const (
	prefetchDepth   = 3
	prefetchWorkers = 2
)

// fetchBlock reads, CRC-verifies, and decompresses one block.
func fetchBlock(f *os.File, bm BlockMeta, compressed bool) blockOut {
	out := blockOut{bm: bm}
	stored := codec.GetBuf(int(bm.Stored))
	if _, err := f.ReadAt(stored, bm.Offset); err != nil {
		codec.PutBuf(stored)
		out.err = fmt.Errorf("storage: read block at %d: %w", bm.Offset, err)
		return out
	}
	var payload []byte
	err := codec.Catch(func() {
		r := codec.NewReader(stored)
		payload = r.Frame()
		if r.Remaining() != 0 {
			panic(codec.ErrCorrupt{Off: int(bm.Stored)})
		}
	})
	if err != nil {
		codec.PutBuf(stored)
		out.err = fmt.Errorf("storage: block at %d: %w", bm.Offset, err)
		return out
	}
	out.stored = stored
	if !compressed {
		if int64(len(payload)) != bm.Raw {
			out.release()
			return blockOut{bm: bm, err: codec.ErrCorrupt{Off: int(bm.Offset)}}
		}
		out.raw = payload
		return out
	}
	raw, err := gunzipInto(payload, bm.Raw)
	if err != nil {
		out.release()
		// Any decompression failure of a CRC-clean block means the footer
		// and block disagree: corruption, and retryable as such.
		return blockOut{bm: bm, err: codec.ErrCorrupt{Off: int(bm.Offset)}}
	}
	out.raw = raw
	out.pooled = true
	return out
}

// prefetchBlocks streams the scan list's blocks in order through a
// bounded pool of fetch workers. The returned channel yields exactly one
// blockOut per scanned block, in scan order; the caller must consume it
// fully or close done early — either way no goroutine leaks.
func prefetchBlocks(f *os.File, scan []BlockMeta, compressed bool, done <-chan struct{}) <-chan blockOut {
	ordered := make(chan blockOut)
	// Per-block result slots, buffered so a worker never blocks delivering.
	slots := make([]chan blockOut, len(scan))
	for i := range slots {
		slots[i] = make(chan blockOut, 1)
	}
	jobs := make(chan int)
	// Credits bound total in-flight blocks (queued + fetching + fetched).
	credits := make(chan struct{}, prefetchDepth)

	go func() { // feeder
		defer close(jobs)
		for i := range scan {
			select {
			case credits <- struct{}{}:
			case <-done:
				return
			}
			select {
			case jobs <- i:
			case <-done:
				return
			}
		}
	}()
	workers := prefetchWorkers
	if workers > len(scan) {
		workers = len(scan)
	}
	for w := 0; w < workers; w++ {
		go func() {
			for {
				select {
				case i, ok := <-jobs:
					if !ok {
						return
					}
					slots[i] <- fetchBlock(f, scan[i], compressed)
				case <-done:
					return
				}
			}
		}()
	}
	go func() { // merger: deliver in order, refunding a credit per block
		defer close(ordered)
		for i := range scan {
			var out blockOut
			select {
			case out = <-slots[i]:
			case <-done:
				return
			}
			select {
			case <-credits:
			default:
			}
			select {
			case ordered <- out:
			case <-done:
				out.release()
				return
			}
		}
	}()
	return ordered
}
