package storage

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// The fixture writer produces the v1 and v2 on-disk generations that
// Write no longer emits. Their readers stay in the product for one job —
// compaction reads them to rewrite a dataset as v3 — so the migration
// tests, fuzz seeds, and golden files need a way to make such datasets on
// demand. The bytes it writes are exactly what the pre-v3 writers
// produced.

// LegacyOptions pins the format WriteLegacy writes.
type LegacyOptions struct {
	Name string
	// Version is 1 (monolithic file) or 2 (row-major block layout); any
	// other value writes the current format through Write.
	Version int
	// Compress gzips partition data: the whole file on v1, each block on
	// v2. The current format ignores it.
	Compress bool
	// BlockRecords is the v2/v3 records-per-block target (0 = the
	// format's default).
	BlockRecords int
}

// WriteLegacy is Write for a pinned format generation.
func WriteLegacy[T any](
	dir string, c codec.Codec[T], parts [][]T, boxOf func(T) index.Box, opts LegacyOptions,
) (*Metadata, error) {
	if opts.Version != 1 && opts.Version != 2 {
		return Write(dir, c, parts, boxOf, WriteOptions{Name: opts.Name, BlockRecords: opts.BlockRecords})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := &Metadata{Name: opts.Name, Compressed: opts.Compress, Framed: true}
	if opts.Version == 2 {
		meta.Version = 2
		meta.BlockRecords = opts.BlockRecords
		if meta.BlockRecords <= 0 {
			meta.BlockRecords = DefaultBlockRecords
		}
	}
	for i, part := range parts {
		var pm PartitionMeta
		var err error
		if opts.Version == 2 {
			pm, err = writePartitionV2(dir, i, c, part, boxOf, opts.Compress, meta.BlockRecords)
		} else {
			pm, err = writePartitionV1(dir, i, c, part, boxOf, opts.Compress)
		}
		if err != nil {
			return nil, err
		}
		meta.TotalCount += pm.Count
		meta.Partitions = append(meta.Partitions, pm)
	}
	if err := writeMetadata(dir, meta); err != nil {
		return nil, err
	}
	return meta, nil
}

// writePartitionV1 writes one partition as a monolithic stream of
// integrity frames (length + CRC32C + payload, flushed at record
// boundaries), gzipped as a whole when compress is set.
func writePartitionV1[T any](
	dir string, i int, c codec.Codec[T], part []T,
	boxOf func(T) index.Box, compress bool,
) (PartitionMeta, error) {
	name := partitionFileName(i)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return PartitionMeta{}, err
	}
	defer f.Close()

	var out io.Writer = f
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(f)
		out = gz
	}
	w := codec.NewWriter(64 * 1024)
	fw := codec.NewWriter(64 * 1024)
	flush := func() error {
		if w.Len() == 0 {
			return nil
		}
		fw.Reset()
		fw.PutFrame(w.Bytes())
		_, err := out.Write(fw.Bytes())
		w.Reset()
		return err
	}
	bounds := index.EmptyBox()
	for _, rec := range part {
		c.Enc(w, rec)
		bounds = bounds.Union(boxOf(rec))
		if w.Len() >= 1<<20 {
			if err := flush(); err != nil {
				return PartitionMeta{}, err
			}
		}
	}
	if err := flush(); err != nil {
		return PartitionMeta{}, err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return PartitionMeta{}, err
		}
	}
	return closePartition(f, path, name, len(part), bounds)
}

var gzWriterPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// writePartitionV2 writes one partition in the block layout of block.go:
// a header magic, frames of blockRecords-record chunks (each gzipped
// independently when compress is set), a framed footer indexing every
// block's byte range, count, and ST bounds, and a fixed trailer pointing
// at the footer.
func writePartitionV2[T any](
	dir string, i int, c codec.Codec[T], part []T,
	boxOf func(T) index.Box, compress bool, blockRecords int,
) (PartitionMeta, error) {
	name := partitionFileName(i)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return PartitionMeta{}, err
	}
	defer f.Close()
	out := bufio.NewWriterSize(f, 256<<10)
	if _, err := out.WriteString(v2Magic); err != nil {
		return PartitionMeta{}, err
	}
	off := int64(blockHeaderLen)

	recW := codec.GetWriter()   // raw record encodings for the current block
	gzW := codec.GetWriter()    // compressed payload scratch
	frameW := codec.GetWriter() // framed output scratch
	defer func() {
		codec.PutWriter(recW)
		codec.PutWriter(gzW)
		codec.PutWriter(frameW)
	}()

	var blocks []BlockMeta
	bounds := index.EmptyBox()
	flush := func(blockBounds index.Box, count int64) error {
		payload := recW.Bytes()
		raw := int64(len(payload))
		if compress {
			gzW.Reset()
			gz := gzWriterPool.Get().(*gzip.Writer)
			gz.Reset(gzW)
			_, werr := gz.Write(payload)
			if cerr := gz.Close(); werr == nil {
				werr = cerr
			}
			gzWriterPool.Put(gz)
			if werr != nil {
				return werr
			}
			payload = gzW.Bytes()
		}
		frameW.Reset()
		frameW.PutFrame(payload)
		if _, err := out.Write(frameW.Bytes()); err != nil {
			return err
		}
		blocks = append(blocks, BlockMeta{
			Offset: off, Stored: int64(frameW.Len()), Raw: raw,
			Count: count, Bounds: blockBounds,
		})
		off += int64(frameW.Len())
		recW.Reset()
		return nil
	}
	blockBounds := index.EmptyBox()
	var blockCount int64
	for _, rec := range part {
		c.Enc(recW, rec)
		b := boxOf(rec)
		blockBounds = blockBounds.Union(b)
		bounds = bounds.Union(b)
		blockCount++
		if blockCount >= int64(blockRecords) {
			if err := flush(blockBounds, blockCount); err != nil {
				return PartitionMeta{}, err
			}
			blockBounds = index.EmptyBox()
			blockCount = 0
		}
	}
	if blockCount > 0 {
		if err := flush(blockBounds, blockCount); err != nil {
			return PartitionMeta{}, err
		}
	}

	footerOff := off
	recW.Reset()
	encodeFooter(recW, blocks)
	frameW.Reset()
	frameW.PutFrame(recW.Bytes())
	if _, err := out.Write(frameW.Bytes()); err != nil {
		return PartitionMeta{}, err
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(footerOff))
	copy(trailer[8:], v2TrailerMagic)
	if _, err := out.Write(trailer[:]); err != nil {
		return PartitionMeta{}, err
	}
	if err := out.Flush(); err != nil {
		return PartitionMeta{}, err
	}
	return closePartition(f, path, name, len(part), bounds)
}

// closePartition closes a written partition file and describes it.
func closePartition(f *os.File, path, name string, count int, bounds index.Box) (PartitionMeta, error) {
	if err := f.Close(); err != nil {
		return PartitionMeta{}, fmt.Errorf("storage: close partition: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return PartitionMeta{}, err
	}
	pm := PartitionMeta{File: name, Count: int64(count), Bytes: st.Size()}
	pm.setBounds(bounds)
	return pm, nil
}
