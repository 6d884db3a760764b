package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"st4ml/internal/codec"
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
// stream to warm up), so v3 affords 4× finer blocks than the gzipped row
// blocks before it (DefaultBlockRecords) — and with them 4× finer pruning
// granularity for small-range queries.
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

// writePartitionV3 writes part as one whole file under name — a base
// partition or a compaction rewrite — and returns its metadata entry, whose
// Bytes is the file's size.
func writePartitionV3[T any](
	dir, name string, c codec.Codec[T], part []T,
	boxOf func(T) index.Box, blockRecords int, sync bool,
) (PartitionMeta, error) {
	runs, size, err := writePartitionV3File(dir, name, c, [][]T{part}, boxOf, blockRecords, sync)
	if err != nil {
		return PartitionMeta{}, err
	}
	pm := runs[0].PartitionMeta
	pm.Bytes = size
	return pm, nil
}

// fileRun is one group's share of a written partition file: its records'
// count and ST bounds, Bytes as the stored bytes of its blocks, and where
// its run of blocks sits in the footer's block index.
type fileRun struct {
	PartitionMeta
	run blockRun
}

// writePartitionV3File writes groups of records into one partition file
// under name — the shared writer behind base partitions (one group), delta
// files (one group per partition an append routes to), and compaction
// rewrites — and returns one fileRun per group plus the file's size. Each
// group starts a new block, so a group's records are exactly its run of
// blocks. sync forces the file to stable storage before returning; the
// delta layer requires it, because the manifest swap that makes a file
// visible must never commit a file the disk does not yet hold. Codecs
// carrying a Columnar schema get native column streams; any other codec
// gets the generic layout (one frame of row encodings per block), so v3
// never requires schema cooperation.
func writePartitionV3File[T any](
	dir, name string, c codec.Codec[T], groups [][]T,
	boxOf func(T) index.Box, blockRecords int, sync bool,
) ([]fileRun, int64, error) {
	if blockRecords > maxBlockRecords {
		blockRecords = maxBlockRecords
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, 0, fmt.Errorf("storage: create partition: %w", err)
	}
	defer f.Close()
	out := bufio.NewWriterSize(f, 256<<10)
	if _, err := out.WriteString(v3Magic); err != nil {
		return nil, 0, fmt.Errorf("storage: write partition: %w", err)
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
	flush := func(blockBounds index.Box, count int64) error {
		if col != nil {
			if err := checkSplit(name, col, cb, count); err != nil {
				return err
			}
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
	runs := make([]fileRun, len(groups))
	for g, part := range groups {
		first, runStart := len(blocks), off
		bounds := index.EmptyBox()
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
					return nil, 0, err
				}
				blockBounds = index.EmptyBox()
				blockCount = 0
			}
		}
		if blockCount > 0 {
			if err := flush(blockBounds, blockCount); err != nil {
				return nil, 0, err
			}
		}
		r := &runs[g]
		r.File, r.Count, r.Bytes = name, int64(len(part)), off-runStart
		r.setBounds(bounds)
		r.run = blockRun{first: first, num: len(blocks) - first}
	}

	footerOff := off
	blkW.Reset()
	blkW.PutRaw([]byte{profile})
	encodeFooter(blkW, blocks)
	frameW.Reset()
	frameW.PutFrame(blkW.Bytes())
	if _, err := out.Write(frameW.Bytes()); err != nil {
		return nil, 0, fmt.Errorf("storage: write footer: %w", err)
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(footerOff))
	copy(trailer[8:], v3TrailerMagic)
	if _, err := out.Write(trailer[:]); err != nil {
		return nil, 0, fmt.Errorf("storage: write trailer: %w", err)
	}
	if err := out.Flush(); err != nil {
		return nil, 0, fmt.Errorf("storage: flush partition: %w", err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			return nil, 0, fmt.Errorf("storage: sync partition: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return nil, 0, fmt.Errorf("storage: close partition: %w", err)
	}
	return runs, footerOff + int64(frameW.Len()) + trailerLen, nil
}

// readFooterV3 opens a v3 partition file and returns its verified profile
// byte and block index plus the file handle (positioned for ReadAt), the
// footer offset, and the total size.
func readFooterV3(path string) (*os.File, byte, []BlockMeta, int64, int64, error) {
	var profile byte
	var blocks []BlockMeta
	f, footerOff, size, err := readFooter(path, func(payload []byte, footerOff int64) {
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

// openV3 opens pm's v3 file for a read of run — one delta entry's run of
// blocks, or with the zero run the whole file — through c, and returns the
// file, its layout profile, the blocks the read covers, the footer offset
// and the read's stats so far. A native file must carry exactly the
// column layout c's columnar schema writes.
func openV3[T any](dir string, pm PartitionMeta, run blockRun, c codec.Codec[T]) (
	*os.File, byte, []BlockMeta, int64, ReadStats, error,
) {
	f, profile, blocks, footerOff, size, err := readFooterV3(filepath.Join(dir, pm.File))
	if err != nil {
		return nil, 0, nil, 0, ReadStats{}, err
	}
	if run != (blockRun{}) {
		if blocks, err = run.of(blocks, pm, footerOff); err != nil {
			f.Close()
			return nil, 0, nil, 0, ReadStats{}, err
		}
	}
	if profile&v3Native != 0 && profile != colProfile(c) {
		// The columns a native file holds are the ones its writer's schema
		// split records into; any other schema would index columns that
		// are not there.
		f.Close()
		return nil, 0, nil, 0, ReadStats{}, fmt.Errorf(
			"storage: partition %s has column layout %#x, the codec's columnar schema writes %#x",
			pm.File, profile, colProfile(c))
	}
	return f, profile, blocks, footerOff,
		ReadStats{Blocks: len(blocks), BytesRead: blockHeaderLen + (size - footerOff)}, nil
}

// readBlockV3 reads block bm of pm's file f, checks its record count, and
// runs decode under codec.Catch over the block payload after the count,
// with the count n.
func readBlockV3(f *os.File, pm PartitionMeta, bm BlockMeta, decode func(r *codec.Reader, n int)) error {
	stored, raw, err := fetchBlock(f, bm)
	if err == nil && int64(len(raw)) != bm.Raw {
		codec.PutBuf(stored)
		err = codec.ErrCorrupt{Off: int(bm.Offset)}
	}
	if err != nil {
		return fmt.Errorf("storage: partition %s: %w", pm.File, err)
	}
	decErr := codec.Catch(func() {
		r := codec.NewReader(raw)
		n := int(r.Uvarint())
		if n < 0 || int64(n) != bm.Count || n > maxBlockRecords {
			panic(codec.ErrCorrupt{Off: 0})
		}
		decode(r, n)
	})
	codec.PutBuf(stored)
	if decErr != nil {
		return fmt.Errorf("storage: partition %s block at %d: %w", pm.File, bm.Offset, decErr)
	}
	return nil
}

// rowFrame returns a generic block's one frame of row encodings, which must
// end the block payload r holds.
func rowFrame(r *codec.Reader) *codec.Reader {
	rows := r.Frame()
	if r.Remaining() != 0 {
		panic(codec.ErrCorrupt{Off: r.Remaining()})
	}
	return codec.NewReader(rows)
}

// decodeColumns is the one decoder of a native block: it decodes the n
// records whose column frames r holds onto the end of cb's read-side
// columns, each column in place in its slice, and returns the records'
// payload span lengths, decoded into lens's capacity, and the payload
// stream, which aliases r's bytes. A row read decodes each block into an
// emptied cb; a column read appends a file's blocks back to back.
func decodeColumns(r *codec.Reader, n int, hasStr bool, cb *codec.ColBlock, lens []int64) ([]int64, []byte) {
	var ids, ts []int64
	var lon, lat []float64
	cb.IDs, ids = extend(cb.IDs, n)
	cb.Lon, lon = extend(cb.Lon, n)
	cb.Lat, lat = extend(cb.Lat, n)
	cb.T, ts = extend(cb.T, n)
	codec.Int64Col(r.Frame(), n, ids)
	codec.Float64Col(r.Frame(), n, lon)
	codec.Float64Col(r.Frame(), n, lat)
	codec.Int64Col(r.Frame(), n, ts)
	if hasStr {
		var idx []uint32
		cb.StrIdx, idx = extend(cb.StrIdx, n)
		_, cb.Dict = codec.StringCol(r.Frame(), n, idx, cb.Dict)
	}
	lens = codec.Int64Col(r.Frame(), n, lens)
	pay := r.Frame()
	if r.Remaining() != 0 {
		panic(codec.ErrCorrupt{Off: r.Remaining()})
	}
	return lens, pay
}

// extend grows s by n elements and returns it with its last n: a window of
// exactly n slots, which a column decoder given it as its destination
// fills in place.
func extend[E any](s []E, n int) ([]E, []E) {
	s = slices.Grow(s, n)
	s = s[:len(s)+n]
	return s, s[len(s)-n : len(s) : len(s)]
}

// readPartitionV3Once decodes one v3 partition file into records,
// skipping blocks whose footer bounds miss every window, and skipping
// individual records that miss every window before they are materialized:
// point schemas test their (lon, lat, t) columns, extended schemas with a
// Columnar.Extent test the box it computes from the columns and the
// record's payload span. RecordsPruned in the returned stats counts the
// latter; RawBytes counts decoded column bytes plus the payload spans
// read, once each: every span an extent test walks, and for point schemas
// only the surviving records' spans. A non-nil blockSet overrides window
// pruning with an explicit block-index selection (the approximate path's
// boundary-block scan); record counts are then not cross-checked against
// metadata, since only a subset is read.
//
// A non-zero run narrows the file to one delta entry's run of blocks
// before any pruning: the block indexes of blockSet, the stats' Blocks and
// the record-count checks then refer to the run, whose total count must
// equal pm.Count on every read.
func readPartitionV3Once[T any](
	dir string, pm PartitionMeta, run blockRun, c codec.Codec[T], windows []index.Box,
	blockSet map[int]bool,
) ([]T, ReadStats, error) {
	f, profile, blocks, footerOff, st, err := openV3(dir, pm, run, c)
	if err != nil {
		return nil, ReadStats{}, err
	}
	defer f.Close()
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
		return nil, ReadStats{}, countMismatch(pm, expect, footerOff)
	}

	native := profile&v3Native != 0
	point := native && profile&v3Point != 0
	filter := point && len(windows) > 0
	extent := native && !point && len(windows) > 0 && c.Col.Extent != nil
	hasStr := profile&v3HasStr != 0
	out := make([]T, 0, capHint(expect))
	var materialized int64
	cb := codec.GetColBlock()
	defer codec.PutColBlock(cb)
	pr := codec.NewReader(nil)
	for _, bm := range scan {
		err := readBlockV3(f, pm, bm, func(r *codec.Reader, n int) {
			if !native {
				rr := rowFrame(r)
				st.RawBytes += bm.Raw
				for j := 0; j < n; j++ {
					out = append(out, c.Dec(rr))
				}
				materialized += int64(n)
				if rr.Remaining() != 0 {
					panic(codec.ErrCorrupt{Off: int(bm.Raw)})
				}
				return
			}
			cb.Reset()
			lens, pay := decodeColumns(r, n, hasStr, cb, cb.PayLen)
			cb.SetPayload(pay, lens)
			st.RawBytes += bm.Raw - int64(len(pay))
			for i := 0; i < n; i++ {
				if filter && !pointInAny(cb.Lon[i], cb.Lat[i], cb.T[i], windows) {
					st.RecordsPruned++
					continue
				}
				span := cb.PaySpan(i)
				st.RawBytes += int64(len(span))
				if extent && !boxIntersectsAny(spanExtent(c.Col, cb, i, pr), windows) {
					st.RecordsPruned++
					continue
				}
				out = append(out, c.Col.Row(cb, i, pr))
				materialized++
			}
		})
		if err != nil {
			return nil, ReadStats{}, err
		}
		st.BytesRead += bm.Stored
	}
	if windows == nil && blockSet == nil && materialized != pm.Count {
		return nil, ReadStats{}, fmt.Errorf(
			"storage: partition %s decoded %d records, metadata says %d: %w",
			pm.File, materialized, pm.Count, codec.ErrCorrupt{Off: 0})
	}
	return out, st, nil
}

// countMismatch is the error of a file whose footer counts expect records
// where its metadata entry says pm.Count.
func countMismatch(pm PartitionMeta, expect, footerOff int64) error {
	return fmt.Errorf("storage: partition %s footer counts %d records, metadata says %d: %w",
		pm.File, expect, pm.Count, codec.ErrCorrupt{Off: int(footerOff)})
}

// spanExtent is record i's box from col.Extent over its payload span,
// which Extent must consume exactly.
func spanExtent[T any](col *codec.Columnar[T], cb *codec.ColBlock, i int, pr *codec.Reader) index.Box {
	span := cb.PaySpan(i)
	pr.ResetBytes(span)
	box := col.Extent(cb, i, pr)
	if pr.Remaining() != 0 {
		panic(codec.ErrCorrupt{Off: len(span)})
	}
	return box
}

// readColumnsV3Once decodes a whole v3 partition file, or one delta
// entry's run of its blocks, into one ColBlock of read-side columns — the
// form a pinned segment holds — building no record it keeps. A native
// file's blocks decode straight into file-wide column slices, sized once
// from the footer's counts, its string columns into one dictionary, and
// its payload streams into one copy; a generic file's rows are decoded
// with c.Dec and split into the same columns by c's columnar schema, which
// the codec must therefore carry. Every native record's payload span is
// walked here, once — by the schema's Extent when it has one, else by
// Columnar.Row, whose record is dropped — and must be consumed exactly,
// so a corrupt file fails this read and never a later Join of its
// columns. The one exception is a point file's block whose payload stream
// is empty, the block of a schema with no payload (nyc, osm): only its
// first record is joined, which a schema that reads a payload fails on.
//
// A non-nil boxOf asks for each record's box as well, in a slice parallel
// to the records: a native file's with an Extent from the walk, any other
// file's from boxOf of the record Dec or Row built, which a point file's
// records are all joined for. A nil boxOf returns nil boxes.
func readColumnsV3Once[T any](
	dir string, pm PartitionMeta, run blockRun, c codec.Codec[T], boxOf func(T) index.Box,
) (*codec.ColBlock, []index.Box, ReadStats, error) {
	col := c.Col
	if col == nil {
		return nil, nil, ReadStats{}, fmt.Errorf(
			"storage: partition %s: a column read needs a codec with a columnar schema", pm.File)
	}
	f, profile, blocks, footerOff, st, err := openV3(dir, pm, run, c)
	if err != nil {
		return nil, nil, ReadStats{}, err
	}
	defer f.Close()
	var expect int64
	for _, bm := range blocks {
		expect += bm.Count
	}
	if expect != pm.Count {
		return nil, nil, ReadStats{}, countMismatch(pm, expect, footerOff)
	}
	st.BlocksScanned = len(blocks)

	native := profile&v3Native != 0
	point := native && profile&v3Point != 0
	hasStr := profile&v3HasStr != 0
	hint := capHint(expect)
	cols := &codec.ColBlock{
		IDs: make([]int64, 0, hint),
		Lon: make([]float64, 0, hint), Lat: make([]float64, 0, hint),
		T: make([]int64, 0, hint),
	}
	if hasStr {
		cols.StrIdx = make([]uint32, 0, hint)
	}
	var boxes []index.Box
	if boxOf != nil {
		boxes = make([]index.Box, 0, hint)
	}
	// scratch holds a native block's span lengths, and a generic block's
	// records split into write-side columns.
	scratch := codec.GetColBlock()
	defer codec.PutColBlock(scratch)
	pr := codec.NewReader(nil)
	var splitErr error
	for _, bm := range blocks {
		err := readBlockV3(f, pm, bm, func(r *codec.Reader, n int) {
			if !native {
				rr := rowFrame(r)
				scratch.Reset()
				for j := 0; j < n; j++ {
					rec := c.Dec(rr)
					col.Split(rec, scratch)
					scratch.EndRecord()
					if boxOf != nil {
						boxes = append(boxes, boxOf(rec))
					}
				}
				if rr.Remaining() != 0 {
					panic(codec.ErrCorrupt{Off: int(bm.Raw)})
				}
				if splitErr = checkSplit(pm.File, col, scratch, int64(n)); splitErr == nil {
					cols.AppendBlock(scratch)
				}
				return
			}
			at := len(cols.IDs)
			lens, pay := decodeColumns(r, n, hasStr, cols, scratch.PayLen)
			scratch.PayLen = lens
			cols.AppendPayload(pay, lens)
			if point && boxOf == nil {
				// A block whose payload stream is empty — every block of a
				// schema that keeps all its fields in the shared columns —
				// is probed with its first record alone, so a schema whose
				// Join reads a payload fails on it as a walk would.
				for i := at; i < at+n && (i == at || len(pay) > 0); i++ {
					col.Row(cols, i, pr)
				}
				return
			}
			for i := at; i < at+n; i++ {
				if col.Extent != nil {
					box := spanExtent(col, cols, i, pr)
					if boxOf != nil {
						boxes = append(boxes, box)
					}
					continue
				}
				rec := col.Row(cols, i, pr)
				if boxOf != nil {
					boxes = append(boxes, boxOf(rec))
				}
			}
		})
		if err == nil {
			err = splitErr
		}
		if err != nil {
			return nil, nil, ReadStats{}, err
		}
		st.BytesRead += bm.Stored
		st.RawBytes += bm.Raw
	}
	return cols, boxes, st, nil
}

// checkSplit fails unless col's Split filled each column of cb it uses with
// exactly count values, and no other column.
func checkSplit[T any](file string, col *codec.Columnar[T], cb *codec.ColBlock, count int64) error {
	if int64(len(cb.IDs)) != count || int64(len(cb.Lon)) != count ||
		int64(len(cb.Lat)) != count || int64(len(cb.T)) != count ||
		int64(len(cb.PayLen)) != count ||
		(col.HasStr && int64(len(cb.Str)) != count) ||
		(!col.HasStr && len(cb.Str) != 0) {
		return fmt.Errorf("storage: columnar Split for %s filled columns unevenly "+
			"(%d records: %d ids, %d lon, %d lat, %d t, %d str, %d spans)",
			file, count, len(cb.IDs), len(cb.Lon), len(cb.Lat), len(cb.T),
			len(cb.Str), len(cb.PayLen))
	}
	return nil
}
