package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
)

// Storage format v3 (see DESIGN.md "Storage format v3"): the block layout
// of block.go with every block decomposed struct-of-arrays. A block's payload is
// a record count followed by one integrity frame per column stream — ids,
// lon, lat, t, an optional string attribute, per-record payload span
// lengths, and the residual payload stream — each column delta-encoded by
// the codec package's column codecs. There is no gzip anywhere: the delta
// encoding is the compression, and it decodes an order of magnitude
// cheaper.
//
//	+------+---------+     +---------+------------------+---------+------+
//	| STB3 | frame 0 | ... | frame k | frame( footer )  | off u64 | 3BTS |
//	+------+---------+     +---------+------------------+---------+------+
//	 magic   block 0         block k   profile + index    trailer
//
// The footer payload opens with one profile byte — whether the blocks are
// native columnar (the codec carried a Columnar schema) or generic
// row-payload, whether the lon/lat/t columns are exact record extents
// (point schemas), and whether a string column is present — followed by
// the block index. Keeping the profile inside the footer
// frame keeps every byte of the file under a CRC.
//
// For point schemas a reader evaluates query windows directly on the
// decoded lon/lat/t columns and materializes only surviving records;
// callers re-filter either way, so this is an allocation/CPU saving,
// never a correctness dependency.

const (
	// v3Magic opens every v3 partition file.
	v3Magic = "STB3"
	// v3TrailerMagic closes it.
	v3TrailerMagic = "3BTS"

	// Profile bits, stored in the footer frame.
	v3Native  = 1 << 0 // blocks are native columnar (codec has a Columnar schema)
	v3Point   = 1 << 1 // lon/lat/t columns are exact record extents
	v3HasStr  = 1 << 2 // a string column is present
	v3AllBits = v3Native | v3Point | v3HasStr
)

// DefaultBlockRecordsV3 is the records-per-block target for v3 files.
// Columnar framing costs a near-constant ~100 bytes per block (no gzip
// stream to warm up), so v3 affords 4× finer blocks than the gzip v2
// layout did — and with them 4× finer pruning granularity for small-range
// queries.
const DefaultBlockRecordsV3 = 1024

// maxBlockRecords caps the record count a single block may claim; counts
// beyond it are treated as corruption before any allocation happens.
const maxBlockRecords = codec.MaxColumnValues

// maxMaterializeHint caps the capacity pre-allocated from footer counts,
// which are attacker-controlled in a corrupt file; appends grow past it
// when the counts are honest.
const maxMaterializeHint = 1 << 20

// capHint bounds a footer-derived record count to a safe prealloc size.
func capHint(n int64) int64 {
	if n > maxMaterializeHint {
		return maxMaterializeHint
	}
	return n
}

// writePartitionV3 writes one base partition in the columnar layout.
func writePartitionV3[T any](
	dir string, i int, c codec.Codec[T], part []T,
	boxOf func(T) index.Box, blockRecords int,
) (PartitionMeta, error) {
	return writePartitionV3File(dir, partitionFileName(i), c, part, boxOf, blockRecords, false)
}

// writePartitionV3File writes one partition file under an explicit name —
// the shared writer behind base partitions, delta files, and compaction
// rewrites. sync forces the file to stable storage before returning; the
// delta layer requires it, because the manifest swap that makes a file
// visible must never commit a file the disk does not yet hold. Codecs
// carrying a Columnar schema get native column streams; any other codec
// gets the generic layout (one frame of row encodings per block), so v3
// never requires schema cooperation.
func writePartitionV3File[T any](
	dir, name string, c codec.Codec[T], part []T,
	boxOf func(T) index.Box, blockRecords int, sync bool,
) (PartitionMeta, error) {
	if blockRecords > maxBlockRecords {
		blockRecords = maxBlockRecords
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return PartitionMeta{}, fmt.Errorf("storage: create partition: %w", err)
	}
	defer f.Close()
	out := bufio.NewWriterSize(f, 256<<10)
	if _, err := out.WriteString(v3Magic); err != nil {
		return PartitionMeta{}, fmt.Errorf("storage: write partition: %w", err)
	}
	off := int64(blockHeaderLen)

	col := c.Col
	profile := colProfile(c)

	cb := codec.GetColBlock()
	blkW := codec.GetWriter()   // one block's payload (count + column frames)
	colW := codec.GetWriter()   // one column's stream
	frameW := codec.GetWriter() // framed output scratch
	defer func() {
		codec.PutColBlock(cb)
		codec.PutWriter(blkW)
		codec.PutWriter(colW)
		codec.PutWriter(frameW)
	}()
	putCol := func(enc func(w *codec.Writer)) {
		colW.Reset()
		enc(colW)
		blkW.PutFrame(colW.Bytes())
	}

	var blocks []BlockMeta
	bounds := index.EmptyBox()
	flush := func(blockBounds index.Box, count int64) error {
		if col != nil && (int64(len(cb.IDs)) != count || int64(len(cb.Lon)) != count ||
			int64(len(cb.Lat)) != count || int64(len(cb.T)) != count ||
			int64(len(cb.PayLen)) != count ||
			(col.HasStr && int64(len(cb.Str)) != count) ||
			(!col.HasStr && len(cb.Str) != 0)) {
			return fmt.Errorf("storage: columnar Split for %s filled columns unevenly "+
				"(%d records: %d ids, %d lon, %d lat, %d t, %d str, %d spans)",
				name, count, len(cb.IDs), len(cb.Lon), len(cb.Lat), len(cb.T),
				len(cb.Str), len(cb.PayLen))
		}
		blkW.Reset()
		blkW.PutUvarint(uint64(count))
		if col != nil {
			putCol(func(w *codec.Writer) { w.PutInt64Col(cb.IDs) })
			putCol(func(w *codec.Writer) { w.PutFloat64Col(cb.Lon) })
			putCol(func(w *codec.Writer) { w.PutFloat64Col(cb.Lat) })
			putCol(func(w *codec.Writer) { w.PutInt64Col(cb.T) })
			if col.HasStr {
				putCol(func(w *codec.Writer) { w.PutStringCol(cb.Str) })
			}
			putCol(func(w *codec.Writer) { w.PutInt64Col(cb.PayLen) })
		}
		blkW.PutFrame(cb.Pay.Bytes())
		frameW.Reset()
		frameW.PutFrame(blkW.Bytes())
		if _, err := out.Write(frameW.Bytes()); err != nil {
			return fmt.Errorf("storage: write block: %w", err)
		}
		blocks = append(blocks, BlockMeta{
			Offset: off, Stored: int64(frameW.Len()), Raw: int64(blkW.Len()),
			Count: count, Bounds: blockBounds,
		})
		off += int64(frameW.Len())
		cb.Reset()
		return nil
	}
	blockBounds := index.EmptyBox()
	var blockCount int64
	for _, rec := range part {
		if col != nil {
			col.Split(rec, cb)
			cb.EndRecord()
		} else {
			c.Enc(&cb.Pay, rec)
		}
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
	blkW.Reset()
	blkW.PutRaw([]byte{profile})
	encodeFooter(blkW, blocks)
	frameW.Reset()
	frameW.PutFrame(blkW.Bytes())
	if _, err := out.Write(frameW.Bytes()); err != nil {
		return PartitionMeta{}, fmt.Errorf("storage: write footer: %w", err)
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(footerOff))
	copy(trailer[8:], v3TrailerMagic)
	if _, err := out.Write(trailer[:]); err != nil {
		return PartitionMeta{}, fmt.Errorf("storage: write trailer: %w", err)
	}
	if err := out.Flush(); err != nil {
		return PartitionMeta{}, fmt.Errorf("storage: flush partition: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			return PartitionMeta{}, fmt.Errorf("storage: sync partition: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return PartitionMeta{}, fmt.Errorf("storage: close partition: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return PartitionMeta{}, err
	}
	pm := PartitionMeta{File: name, Count: int64(len(part)), Bytes: st.Size()}
	pm.setBounds(bounds)
	return pm, nil
}

// readFooterV3 opens a v3 partition file and returns its verified profile
// byte and block index plus the file handle (positioned for ReadAt), the
// footer offset, and the total size.
func readFooterV3(path string) (*os.File, byte, []BlockMeta, int64, int64, error) {
	var profile byte
	var blocks []BlockMeta
	f, footerOff, size, err := readFooter(path, v3Magic, v3TrailerMagic, func(payload []byte, footerOff int64) {
		if len(payload) < 1 {
			panic(codec.ErrCorrupt{Off: int(footerOff)})
		}
		profile = payload[0]
		if profile&^byte(v3AllBits) != 0 || (profile&v3Native == 0 && profile != 0) {
			panic(codec.ErrCorrupt{Off: int(footerOff)})
		}
		blocks = decodeFooter(payload[1:], footerOff)
		for _, bm := range blocks {
			if bm.Count > maxBlockRecords {
				panic(codec.ErrCorrupt{Off: int(footerOff)})
			}
		}
	})
	return f, profile, blocks, footerOff, size, err
}

// colProfile is the layout profile c's blocks are written with: native
// columnar when c carries a Columnar schema, plus the schema's point and
// string-column flags; 0, the generic row layout, otherwise.
func colProfile[T any](c codec.Codec[T]) byte {
	if c.Col == nil {
		return 0
	}
	profile := byte(v3Native)
	if c.Col.Point {
		profile |= v3Point
	}
	if c.Col.HasStr {
		profile |= v3HasStr
	}
	return profile
}

// pointInAny reports whether the point (lon, lat, t) lies inside at least
// one window — the closed-interval test index.Box.Intersects reduces to
// for a degenerate point box.
func pointInAny(lon, lat float64, t int64, windows []index.Box) bool {
	ft := float64(t)
	for _, w := range windows {
		if lon >= w.Min[0] && lon <= w.Max[0] &&
			lat >= w.Min[1] && lat <= w.Max[1] &&
			ft >= w.Min[2] && ft <= w.Max[2] {
			return true
		}
	}
	return false
}

// readPartitionV3Once decodes one v3 partition file, skipping blocks
// whose footer bounds miss every window, and skipping individual records
// that miss every window before they are materialized: point schemas test
// their (lon, lat, t) columns, extended schemas with a Columnar.Extent
// test the box it computes from the columns and the record's payload
// span. RecordsPruned in the returned stats counts the latter; RawBytes
// counts decoded column bytes plus the payload spans read, once each:
// every span an extent test walks, and for point schemas only the
// surviving records' spans. A non-nil blockSet overrides
// window pruning with an explicit block-index selection (the approximate
// path's boundary-block scan); record counts are then not cross-checked
// against metadata, since only a subset is read.
//
// A non-nil boxOf asks for each returned record's box as well, in a slice
// parallel to the records: a native point file takes it from the decoded
// (lon, lat, t) columns — the tuple the window test above already trusts
// as the record's exact extent — and any other file from boxOf(rec) as
// each record is built. A nil boxOf returns nil boxes.
func readPartitionV3Once[T any](
	dir string, pm PartitionMeta, c codec.Codec[T], windows []index.Box,
	blockSet map[int]bool, boxOf func(T) index.Box,
) ([]T, []index.Box, ReadStats, error) {
	f, profile, blocks, footerOff, size, err := readFooterV3(filepath.Join(dir, pm.File))
	if err != nil {
		return nil, nil, ReadStats{}, err
	}
	defer f.Close()
	native := profile&v3Native != 0
	if native && profile != colProfile(c) {
		// The columns a native file holds are the ones its writer's schema
		// split records into; any other schema would index columns that
		// are not there.
		return nil, nil, ReadStats{}, fmt.Errorf(
			"storage: partition %s has column layout %#x, the codec's columnar schema writes %#x",
			pm.File, profile, colProfile(c))
	}

	st := ReadStats{Blocks: len(blocks), BytesRead: blockHeaderLen + (size - footerOff)}
	var scan []BlockMeta
	var expect int64
	for bi, bm := range blocks {
		keep := windows == nil && blockSet == nil
		if blockSet != nil {
			keep = blockSet[bi]
		} else if !keep && bm.Count > 0 {
			keep = boxIntersectsAny(bm.Bounds, windows)
		}
		if keep {
			scan = append(scan, bm)
			expect += bm.Count
		} else {
			st.BlocksPruned++
		}
	}
	st.BlocksScanned = len(scan)
	if windows == nil && blockSet == nil && expect != pm.Count {
		return nil, nil, ReadStats{}, fmt.Errorf(
			"storage: partition %s footer counts %d records, metadata says %d: %w",
			pm.File, expect, pm.Count, codec.ErrCorrupt{Off: int(footerOff)})
	}

	point := native && profile&v3Point != 0
	filter := point && len(windows) > 0
	extent := native && !point && len(windows) > 0 && c.Col.Extent != nil
	hasStr := profile&v3HasStr != 0
	out := make([]T, 0, capHint(expect))
	var boxes []index.Box
	if boxOf != nil {
		boxes = make([]index.Box, 0, capHint(expect))
	}
	var materialized int64
	cb := codec.GetColBlock()
	defer codec.PutColBlock(cb)
	for _, bm := range scan {
		stored, raw, err := fetchBlock(f, bm)
		if err == nil && int64(len(raw)) != bm.Raw {
			codec.PutBuf(stored)
			err = codec.ErrCorrupt{Off: int(bm.Offset)}
		}
		if err != nil {
			return nil, nil, ReadStats{}, fmt.Errorf("storage: partition %s: %w", pm.File, err)
		}
		st.BytesRead += bm.Stored
		decErr := codec.Catch(func() {
			r := codec.NewReader(raw)
			n := int(r.Uvarint())
			if n < 0 || int64(n) != bm.Count || n > maxBlockRecords {
				panic(codec.ErrCorrupt{Off: 0})
			}
			if !native {
				pay := r.Frame()
				if r.Remaining() != 0 {
					panic(codec.ErrCorrupt{Off: int(bm.Raw)})
				}
				st.RawBytes += bm.Raw
				rr := codec.NewReader(pay)
				for j := 0; j < n; j++ {
					rec := c.Dec(rr)
					out = append(out, rec)
					if boxOf != nil {
						boxes = append(boxes, boxOf(rec))
					}
				}
				materialized += int64(n)
				if rr.Remaining() != 0 {
					panic(codec.ErrCorrupt{Off: int(bm.Raw)})
				}
				return
			}
			cb.Reset()
			cb.IDs = codec.Int64Col(r.Frame(), n, cb.IDs)
			cb.Lon = codec.Float64Col(r.Frame(), n, cb.Lon)
			cb.Lat = codec.Float64Col(r.Frame(), n, cb.Lat)
			cb.T = codec.Int64Col(r.Frame(), n, cb.T)
			if hasStr {
				cb.Str = codec.StringCol(r.Frame(), n, cb.Str)
			}
			lens := codec.Int64Col(r.Frame(), n, cb.PayLen)
			pay := r.Frame()
			if r.Remaining() != 0 {
				panic(codec.ErrCorrupt{Off: int(bm.Raw)})
			}
			cb.SetPayload(pay, lens)
			st.RawBytes += bm.Raw - int64(len(pay))
			pr := codec.NewReader(nil)
			for i := 0; i < n; i++ {
				if filter && !pointInAny(cb.Lon[i], cb.Lat[i], cb.T[i], windows) {
					st.RecordsPruned++
					continue
				}
				span := cb.PaySpan(i)
				st.RawBytes += int64(len(span))
				if extent {
					pr.ResetBytes(span)
					box := c.Col.Extent(cb, i, pr)
					if pr.Remaining() != 0 {
						panic(codec.ErrCorrupt{Off: len(span)})
					}
					if !boxIntersectsAny(box, windows) {
						st.RecordsPruned++
						continue
					}
				}
				pr.ResetBytes(span)
				rec := c.Col.Join(cb, i, pr)
				out = append(out, rec)
				materialized++
				if pr.Remaining() != 0 {
					panic(codec.ErrCorrupt{Off: len(span)})
				}
				if boxOf != nil {
					if point {
						boxes = append(boxes, index.BoxOfPoint(geom.Pt(cb.Lon[i], cb.Lat[i]), cb.T[i]))
					} else {
						boxes = append(boxes, boxOf(rec))
					}
				}
			}
		})
		codec.PutBuf(stored)
		if decErr != nil {
			return nil, nil, ReadStats{}, fmt.Errorf("storage: partition %s block at %d: %w",
				pm.File, bm.Offset, decErr)
		}
	}
	if windows == nil && blockSet == nil && materialized != pm.Count {
		return nil, nil, ReadStats{}, fmt.Errorf(
			"storage: partition %s decoded %d records, metadata says %d: %w",
			pm.File, materialized, pm.Count, codec.ErrCorrupt{Off: 0})
	}
	return out, boxes, st, nil
}
