package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// The block layout (see DESIGN.md "Storage format v3"): a partition file is
// a header magic, a sequence of CRC-framed blocks of ~N records, a framed
// footer recording every block's byte range, record count, and ST bounds,
// and a fixed trailer pointing at the footer. The footer is what lets a
// reader skip blocks whose bounds miss the query window, pushing the
// paper's §4.1 partition-granularity pruning down to row-group granularity
// (Fig. 5c/d shows 42–98 % of loaded data is irrelevant at small ranges).
//
//	+-------+---------+     +---------+-----------------+---------+-------+
//	| magic | frame 0 | ... | frame k | frame( footer ) | off u64 | magic |
//	+-------+---------+     +---------+-----------------+---------+-------+
//	 header   block 0         block k   block index       trailer
//
// Every frame is the codec package's uvarint(len) + CRC32-C + payload
// envelope. The 12-byte trailer is a fixed-width pointer to the footer
// frame plus a closing magic, distinct from the header magic so a
// truncation that happens to end on the header still fails. blockv3.go
// writes the block payloads as column streams.

const (
	// blockHeaderLen is the header magic length.
	blockHeaderLen = 4
	// trailerLen is the fixed trailer: 8-byte little-endian footer offset
	// + 4-byte magic.
	trailerLen = 12
)

// FormatVersion is the version number written into new dataset metadata:
// the columnar v3 layout of blockv3.go, the only format Write produces and
// the only one the query path reads.
const FormatVersion = 3

// DefaultBlockRecords is the records-per-block target of appends and
// compactions on a dataset whose metadata records no block size: a store
// first written in the v1 layout and migrated to v3 before v1/v2 support
// was dropped keeps the 4096-record granularity its rewrites were given.
// Write records its block size, whose default is DefaultBlockRecordsV3.
const DefaultBlockRecords = 4096

// BlockMeta describes one block of a partition file, as recorded in the
// file's footer.
type BlockMeta struct {
	// Offset is the block frame's byte offset from the file start.
	Offset int64
	// Stored is the framed length on disk (envelope included).
	Stored int64
	// Raw is the block payload's length (the frame less its envelope),
	// checked against the frame on every read.
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
	if n < 0 || n > r.Remaining()/minFooterEntry {
		panic(codec.ErrCorrupt{Off: 0})
	}
	blocks := make([]BlockMeta, n)
	prevEnd := int64(blockHeaderLen)
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

// readFooter opens a v3 file, checks its header and trailer magics and
// the trailer's footer offset, and hands the CRC-verified footer payload
// to parse (run under codec.Catch, so parse reports corruption by
// panicking codec.ErrCorrupt). It returns the open file for ReadAt, the
// footer offset, and the file size.
func readFooter(path string, parse func(payload []byte, footerOff int64)) (*os.File, int64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("storage: open partition: %w", err)
	}
	fail := func(err error) (*os.File, int64, int64, error) {
		f.Close()
		return nil, 0, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("storage: stat partition: %w", err))
	}
	size := st.Size()
	name := filepath.Base(path)
	if size < blockHeaderLen+trailerLen {
		return fail(fmt.Errorf("storage: partition %s truncated: %w", name, codec.ErrCorrupt{Off: int(size)}))
	}
	var head [blockHeaderLen]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return fail(fmt.Errorf("storage: read header: %w", err))
	}
	if string(head[:]) != v3Magic {
		return fail(fmt.Errorf("storage: partition %s: bad magic: %w", name, codec.ErrCorrupt{Off: 0}))
	}
	var trailer [trailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-trailerLen); err != nil {
		return fail(fmt.Errorf("storage: read trailer: %w", err))
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if string(trailer[8:]) != v3TrailerMagic || footerOff < blockHeaderLen || footerOff >= size-trailerLen {
		return fail(fmt.Errorf("storage: partition %s: bad trailer: %w",
			name, codec.ErrCorrupt{Off: int(size - trailerLen)}))
	}
	footerStored := codec.GetBuf(int(size - trailerLen - footerOff))
	defer codec.PutBuf(footerStored)
	if _, err := f.ReadAt(footerStored, footerOff); err != nil {
		return fail(fmt.Errorf("storage: read footer: %w", err))
	}
	err = codec.Catch(func() {
		r := codec.NewReader(footerStored)
		payload := r.Frame()
		if r.Remaining() != 0 {
			panic(codec.ErrCorrupt{Off: int(footerOff)})
		}
		parse(payload, footerOff)
	})
	if err != nil {
		return fail(fmt.Errorf("storage: partition %s footer: %w", name, err))
	}
	return f, footerOff, size, nil
}

// fetchBlock reads and CRC-verifies one block frame into a pooled buffer.
// It returns that buffer (the caller PutBufs it when done) and the frame's
// payload, which aliases it.
func fetchBlock(f *os.File, bm BlockMeta) (stored, payload []byte, err error) {
	stored = codec.GetBuf(int(bm.Stored))
	if _, err := f.ReadAt(stored, bm.Offset); err != nil {
		codec.PutBuf(stored)
		return nil, nil, fmt.Errorf("storage: read block at %d: %w", bm.Offset, err)
	}
	err = codec.Catch(func() {
		r := codec.NewReader(stored)
		payload = r.Frame()
		if r.Remaining() != 0 {
			panic(codec.ErrCorrupt{Off: int(bm.Stored)})
		}
	})
	if err != nil {
		codec.PutBuf(stored)
		return nil, nil, fmt.Errorf("storage: block at %d: %w", bm.Offset, err)
	}
	return stored, payload, nil
}
