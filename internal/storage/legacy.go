package storage

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"st4ml/internal/codec"
)

// The legacy generations, readable only by compaction. Datasets written
// before the columnar layout come in two older formats:
//
//   - v1 (metadata version absent or 1): one monolithic file per
//     partition — a stream of CRC32C frames of record encodings, or on the
//     oldest datasets (metadata without "framed") a bare record stream —
//     gzipped as a whole when the metadata says "compressed";
//   - v2 (version 2, and every delta file whose manifest entry has no
//     format): the block layout of block.go under the STB2/2BTS magics,
//     each block's payload the row-major record encodings, gzipped per
//     block when the dataset is compressed.
//
// The query path refuses both with ErrLegacyFormat. Compact reads them
// through readAnyFormat below, whole and in file order, and rewrites the
// partition as v3 — so one compaction pass (`stingest -dir D -once`)
// migrates a dataset, and nothing else in the product decodes these bytes.

const (
	// v2Magic opens every v2 partition file.
	v2Magic = "STB2"
	// v2TrailerMagic closes it.
	v2TrailerMagic = "2BTS"
)

// readForCompaction decodes partition i's live view whole — the base file,
// then every attached delta in manifest order — whatever format each file
// is in.
func readForCompaction[T any](dir string, meta *Metadata, i int, c codec.Codec[T]) ([]T, error) {
	out, err := readAnyFormat(dir, meta, meta.Partitions[i], blockRun{}, meta.partitionFormat(i), c)
	if err != nil {
		return nil, err
	}
	for _, dm := range meta.Deltas(i) {
		recs, err := readAnyFormat(dir, meta, dm.PartitionMeta, dm.run(), deltaFormat(dm), c)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// readAnyFormat decodes one whole base or delta file stored in format
// version — for a v3 delta, its run of blocks: v3 through the query path's
// reader, v2 and v1 (which never share a file) through the legacy readers.
// A checksum mismatch is retried like any partition read.
func readAnyFormat[T any](dir string, meta *Metadata, pm PartitionMeta, run blockRun, version int, c codec.Codec[T]) ([]T, error) {
	var recs []T
	err := readWithRetry(pm.File, func() (err error) {
		switch {
		case version >= FormatVersion:
			recs, _, err = readPartitionV3Once[T](dir, pm, run, c, nil, nil)
		case version == 2:
			recs, err = readV2[T](dir, meta.Compressed, pm, c)
		default:
			recs, err = readV1[T](dir, meta, pm, c)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Gzip readers are pooled: Reset-able and expensive to construct (each
// allocates its window).
var gzReaderPool = sync.Pool{New: func() any { return new(gzip.Reader) }}

// gunzip decompresses src into a pooled buffer of exactly rawLen bytes
// when rawLen is non-negative, failing if the stream is shorter or longer;
// a negative rawLen reads the whole stream into a fresh buffer. The caller
// owns the returned buffer.
func gunzip(src []byte, rawLen int64) ([]byte, error) {
	gz := gzReaderPool.Get().(*gzip.Reader)
	defer gzReaderPool.Put(gz)
	if err := gz.Reset(bytes.NewReader(src)); err != nil {
		return nil, err
	}
	if rawLen < 0 {
		return io.ReadAll(gz)
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

// readV1 decodes one monolithic v1 file.
func readV1[T any](dir string, meta *Metadata, pm PartitionMeta, c codec.Codec[T]) ([]T, error) {
	raw, err := os.ReadFile(filepath.Join(dir, pm.File))
	if err != nil {
		return nil, fmt.Errorf("storage: read partition: %w", err)
	}
	if meta.Compressed {
		if raw, err = gunzip(raw, -1); err != nil {
			return nil, fmt.Errorf("storage: decompress partition %s: %w", pm.File, err)
		}
	}
	out := make([]T, 0, capHint(pm.Count))
	err = codec.Catch(func() {
		r := codec.NewReader(raw)
		for r.Remaining() > 0 {
			if !meta.Framed {
				// Oldest datasets: a bare record stream with no checksums.
				out = append(out, c.Dec(r))
				continue
			}
			fr := codec.NewReader(r.Frame())
			for fr.Remaining() > 0 {
				out = append(out, c.Dec(fr))
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("storage: partition %s corrupt: %w", pm.File, err)
	}
	if int64(len(out)) != pm.Count {
		return nil, fmt.Errorf("storage: partition %s has %d records, metadata says %d",
			pm.File, len(out), pm.Count)
	}
	return out, nil
}

// readV2 decodes every block of one v2 file in order.
func readV2[T any](dir string, compressed bool, pm PartitionMeta, c codec.Codec[T]) ([]T, error) {
	var blocks []BlockMeta
	f, footerOff, _, err := readFooter(filepath.Join(dir, pm.File), v2Magic, v2TrailerMagic,
		func(payload []byte, footerOff int64) { blocks = decodeFooter(payload, footerOff) })
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var expect int64
	for _, bm := range blocks {
		expect += bm.Count
	}
	if expect != pm.Count {
		return nil, fmt.Errorf("storage: partition %s footer counts %d records, metadata says %d: %w",
			pm.File, expect, pm.Count, codec.ErrCorrupt{Off: int(footerOff)})
	}
	out := make([]T, 0, capHint(expect))
	for _, bm := range blocks {
		stored, raw, err := fetchBlock(f, bm)
		if err != nil {
			return nil, fmt.Errorf("storage: partition %s: %w", pm.File, err)
		}
		if compressed {
			unz, gzErr := gunzip(raw, bm.Raw)
			codec.PutBuf(stored)
			stored, raw, err = unz, unz, gzErr
		} else if int64(len(raw)) != bm.Raw {
			err = fmt.Errorf("storage: payload of %d bytes, footer says %d", len(raw), bm.Raw)
		}
		if err != nil {
			codec.PutBuf(stored)
			// A CRC-clean block that disagrees with its footer is corruption,
			// and retryable as such.
			return nil, fmt.Errorf("storage: partition %s block at %d: %v: %w",
				pm.File, bm.Offset, err, codec.ErrCorrupt{Off: int(bm.Offset)})
		}
		err = codec.Catch(func() {
			r := codec.NewReader(raw)
			for n := int64(0); n < bm.Count; n++ {
				out = append(out, c.Dec(r))
			}
			if r.Remaining() != 0 {
				panic(codec.ErrCorrupt{Off: int(bm.Raw)})
			}
		})
		codec.PutBuf(stored)
		if err != nil {
			return nil, fmt.Errorf("storage: partition %s block at %d: %w", pm.File, bm.Offset, err)
		}
	}
	return out, nil
}
