package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// writeFuzzSeed produces the bytes of a small native v3 partition file
// plus its metadata, shared by the fuzz targets and the byte-flip tests.
func writeFuzzSeed(t testing.TB, blockRecords int) ([]byte, *Metadata, []rec) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	parts := makeParts(rng, 1, 50)
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "fuzz", BlockRecords: blockRecords})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, meta.Partitions[0].File))
	if err != nil {
		t.Fatal(err)
	}
	return raw, meta, parts[0]
}

// readBytesAsPartition writes data as partition 0 of a scratch dataset
// carrying meta's shape and reads it back through the pruned reader.
func readBytesAsPartition(t testing.TB, meta *Metadata, data []byte, windows []index.Box) ([]rec, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, meta.Partitions[0].File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadPartitionPruned(dir, meta, 0, recC, windows)
	return out, err
}

// FuzzBlockFooter drives the footer decoder directly: any byte soup must
// either decode or panic ErrCorrupt (converted by Catch), with the
// entry-size guard preventing absurd pre-allocations. Besides hand-built
// footers it is seeded with the block index of a native and a generic v3
// file.
func FuzzBlockFooter(f *testing.F) {
	valid := codec.GetWriter()
	encodeFooter(valid, []BlockMeta{
		{Offset: 4, Stored: 100, Raw: 200, Count: 8, Bounds: index.EmptyBox()},
		{Offset: 104, Stored: 50, Raw: 60, Count: 3},
	})
	f.Add(append([]byte{}, valid.Bytes()...), int64(1000))
	codec.PutWriter(valid)
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(1<<40))
	// The block index of a real file of each v3 layout.
	native, _, _ := writeFuzzSeed(f, 8)
	for _, raw := range [][]byte{native, genericFuzzSeed(f)} {
		footerOff := int64(binary.LittleEndian.Uint64(raw[len(raw)-trailerLen:]))
		payload := codec.NewReader(raw[footerOff : len(raw)-trailerLen]).Frame()
		f.Add(append([]byte{}, payload[1:]...), footerOff) // less the profile byte
	}
	f.Fuzz(func(t *testing.T, data []byte, regionEnd int64) {
		err := codec.Catch(func() {
			blocks := decodeFooter(data, regionEnd)
			// Decoded footers satisfy the structural invariants the reader
			// depends on: ordered, non-overlapping, inside the block region.
			prevEnd := int64(blockHeaderLen)
			for _, b := range blocks {
				if b.Offset < prevEnd || b.Offset+b.Stored > regionEnd {
					t.Fatalf("decodeFooter admitted out-of-region block %+v", b)
				}
				prevEnd = b.Offset + b.Stored
			}
		})
		_ = err
	})
}

// checkColumnsMatchRows reads pm's file — run's blocks of it, for a delta
// entry — through the column reader and the row reader: both must fail,
// or both succeed with the same records, compared by their encodings so
// NaN fields compare by their bits, and the column reader's boxes must
// equal boxOf of each record, bit for bit. It returns the column read's
// error.
func checkColumnsMatchRows[T any](t *testing.T, dir string, pm PartitionMeta, run blockRun,
	c codec.Codec[T], boxOf func(T) index.Box) error {
	t.Helper()
	rows, _, rowErr := readPartitionV3Once(dir, pm, run, c, nil, nil)
	cols, boxes, _, colErr := readColumnsV3Once(dir, pm, run, c, boxOf)
	if (rowErr == nil) != (colErr == nil) {
		t.Fatalf("%s run %+v: row read %v, column read %v", pm.File, run, rowErr, colErr)
	}
	if colErr != nil {
		return colErr
	}
	joined, err := c.Col.Rows(cols)
	if err != nil {
		t.Fatalf("%s run %+v: columns loaded cleanly but do not join: %v", pm.File, run, err)
	}
	if len(joined) != len(rows) || len(boxes) != len(rows) {
		t.Fatalf("%s run %+v: %d joined records and %d boxes, row read %d records",
			pm.File, run, len(joined), len(boxes), len(rows))
	}
	for i := range rows {
		if !bytes.Equal(codec.Marshal(c, joined[i]), codec.Marshal(c, rows[i])) {
			t.Fatalf("%s run %+v: record %d joined as %+v, row read %+v", pm.File, run, i, joined[i], rows[i])
		}
		want := boxOf(rows[i])
		for a := range want.Min {
			if math.Float64bits(boxes[i].Min[a]) != math.Float64bits(want.Min[a]) ||
				math.Float64bits(boxes[i].Max[a]) != math.Float64bits(want.Max[a]) {
				t.Fatalf("%s run %+v: record %d box %+v, boxOf %+v", pm.File, run, i, boxes[i], want)
			}
		}
	}
	return nil
}

// FuzzV3Block throws arbitrary bytes at the v3 columnar reader as a whole
// partition file, over both the native columnar path (recC carries a
// Columnar schema) and the generic row fallback, and — as an
// extended-record file — through the Columnar.Extent record test with
// windows set. The reader never panics (ErrCorrupt is always caught), and
// a clean read returns exactly the promised record count — arbitrary
// corruption surfaces as an error, never as silently wrong output. Corruption inside a
// record the extent test prunes is still an error. The column reader
// pinned segments load through must agree with the row reader on the same
// bytes — as a base file of either schema and as each run of a shared
// delta file — failing where it fails and returning the same records and
// boxes where it does not (checkColumnsMatchRows); the stray-byte seed
// fails the column read, so its bad record never reaches a later Join.
func FuzzV3Block(f *testing.F) {
	seedNative, metaNative, _ := writeFuzzSeed(f, 8)
	f.Add(seedNative)
	f.Add(genericFuzzSeed(f))
	f.Add([]byte{})
	f.Add([]byte(v3Magic))
	f.Add(append(append([]byte(v3Magic), make([]byte, 12)...), v3TrailerMagic...))
	seedExt, metaExt, seedExtBad := xrecFuzzSeed(f)
	f.Add(seedExt)
	f.Add(seedExtBad)
	line := xrecLine()
	// Record 1's box: block 0 (records 0-3) is scanned, block 1 pruned by
	// its footer bounds, and record 3 — the stray-byte seed's bad one —
	// pruned by its extent.
	extWindows := []index.Box{xrecBox(line[1])}
	win := []index.Box{{
		Min: [index.Dims]float64{0, 0, 0},
		Max: [index.Dims]float64{5, 5, 500},
	}}
	f.Add(payLenWrapSeed(f, win))
	f.Add(strayPointPaySeed(f))
	seedRuns, runs := multiRunFuzzSeed(f)
	f.Add(seedRuns)
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := readBytesAsPartition(t, metaNative, data, nil)
		if err == nil && int64(len(out)) != metaNative.Partitions[0].Count {
			t.Fatalf("clean read returned %d records, metadata says %d",
				len(out), metaNative.Partitions[0].Count)
		}
		// Columnar-pruned scan: the per-record predicate runs on decoded
		// columns, so corruption must still surface as an error, never a
		// panic or silent wrong output.
		if _, err := readBytesAsPartition(t, metaNative, data, win); err != nil {
			_ = err
		}
		// Generic fallback decode of the same bytes: a file written with a
		// columnar schema must not decode through the row path (profile
		// mismatch is structural corruption), and must never panic.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, metaNative.Partitions[0].File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = ReadPartitionPruned(dir, metaNative, 0, recRowC, nil)
		_ = err
		// The same bytes as an extended-record partition, read with a
		// window that prunes most records by their Extent: a clean read
		// keeps exactly the records a full read would keep for it, and the
		// stray-byte seed (record 3's span overlong, record 3 pruned) must
		// fail like its full read does.
		xdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(xdir, metaExt.Partitions[0].File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadPartitionPruned(xdir, metaExt, 0, xrecC, extWindows)
		full, _, fullErr := ReadPartitionPruned(xdir, metaExt, 0, xrecC, nil)
		if err == nil && fullErr == nil {
			var want []xrec
			for _, v := range full {
				if boxIntersectsAny(xrecBox(v), extWindows) {
					want = append(want, v)
				}
			}
			if !sameXrecs(got, want) {
				t.Fatalf("extent-pruned read returned %d records, filtered full read %d", len(got), len(want))
			}
		}
		if bytes.Equal(data, seedExtBad) && err == nil {
			t.Fatal("a stray byte in a pruned record's payload went undetected")
		}
		checkColumnsMatchRows(t, dir, metaNative.Partitions[0], blockRun{}, recC, recBox)
		xerr := checkColumnsMatchRows(t, xdir, metaExt.Partitions[0], blockRun{}, xrecC, xrecBox)
		if bytes.Equal(data, seedExtBad) && xerr == nil {
			t.Fatal("a stray byte in a record's payload loaded into columns")
		}
		// The same bytes as an append's shared delta file: each entry's run
		// reads without panicking, and a clean read returns exactly the
		// entry's record count.
		ddir := t.TempDir()
		if err := os.WriteFile(filepath.Join(ddir, runs[0].File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, dm := range runs {
			recs, _, err := readDeltaRows(ddir, dm, recC)
			if err == nil && int64(len(recs)) != dm.Count {
				t.Fatalf("clean run read returned %d records, manifest says %d", len(recs), dm.Count)
			}
			checkColumnsMatchRows(t, ddir, dm.PartitionMeta, dm.run(), recC, recBox)
		}
	})
}

// genericFuzzSeed is writeFuzzSeed's records as a v3 file in the generic
// row layout, under the same file name and record count.
func genericFuzzSeed(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	parts := makeParts(rand.New(rand.NewSource(99)), 1, 50)
	meta, err := Write(dir, recRowC, parts, recBox, WriteOptions{Name: "fuzz", BlockRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, meta.Partitions[0].File))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestV3EveryByteFlipDetected is the deterministic core of the fuzz
// contract: header and trailer magics are explicit, the footer
// (including the layout profile byte) and every column stream are CRC
// framed, so no single-byte flip may pass unnoticed.
func TestV3EveryByteFlipDetected(t *testing.T) {
	for name, c := range map[string]codec.Codec[rec]{"native": recC, "generic": recRowC} {
		dir := t.TempDir()
		rng := rand.New(rand.NewSource(99))
		parts := makeParts(rng, 1, 50)
		meta, err := Write(dir, c, parts, recBox, WriteOptions{Name: "fuzz", BlockRecords: 8})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, meta.Partitions[0].File))
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(raw); pos++ {
			mut := append([]byte{}, raw...)
			mut[pos] ^= 0x5a
			mdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(mdir, meta.Partitions[0].File), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			got, _, err := ReadPartitionPruned(mdir, meta, 0, c, nil)
			if err == nil && !reflect.DeepEqual(got, parts[0]) {
				t.Fatalf("%s: flip at byte %d/%d silently changed records", name, pos, len(raw))
			}
			if err == nil {
				t.Fatalf("%s: flip at byte %d/%d went undetected", name, pos, len(raw))
			}
		}
	}
}

// TestV3TruncationsDetected chops a v3 file at every length below full and
// expects an error each time.
func TestV3TruncationsDetected(t *testing.T) {
	raw, meta, _ := writeFuzzSeed(t, 8)
	for n := 0; n < len(raw); n++ {
		if _, err := readBytesAsPartition(t, meta, raw[:n], nil); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", n, len(raw))
		}
	}
}

// TestV3SchemaMismatchErrors pins the structural rules between the file's
// layout profile and the reader's codec: a native columnar file cannot be
// read by a codec without a Columnar schema, while a generic v3 file reads
// fine through a columnar codec (the profile says rows, so rows it is).
func TestV3SchemaMismatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := makeParts(rng, 1, 30)

	nativeDir := t.TempDir()
	nm, err := Write(nativeDir, recC, parts, recBox, WriteOptions{BlockRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPartitionPruned(nativeDir, nm, 0, recRowC, nil); err == nil {
		t.Fatal("native columnar file decoded through a codec with no Columnar schema")
	}

	genericDir := t.TempDir()
	gm, err := Write(genericDir, recRowC, parts, recBox, WriteOptions{BlockRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadPartitionPruned(genericDir, gm, 0, recC, nil)
	if err != nil {
		t.Fatalf("generic v3 file through columnar codec: %v", err)
	}
	if !reflect.DeepEqual(got, parts[0]) {
		t.Fatal("generic v3 file decoded to different records")
	}
}

// payLenWrapSeed is writeFuzzSeed's native file rewritten as one block
// whose payload span lengths sum, wrapping int64, to the length of a
// one-byte payload stream: {1, MaxInt64, MaxInt64, 2} at the first
// record win prunes that is followed by one it keeps, zero elsewhere. The
// PayLen column is a plain delta stream under a valid CRC, so only the
// span validation stands between these lengths and a slice expression
// with a negative bound on the kept record.
func payLenWrapSeed(t testing.TB, win []index.Box) []byte {
	t.Helper()
	raw, meta, recs := writeFuzzSeed(t, 64)
	lens := make([]int64, len(recs))
	placed := false
	for a := 0; a+4 <= len(recs); a++ {
		if !boxIntersectsAny(recBox(recs[a]), win) && boxIntersectsAny(recBox(recs[a+1]), win) {
			copy(lens[a:], []int64{1, math.MaxInt64, math.MaxInt64, 2})
			placed = true
			break
		}
	}
	if !placed {
		// All-zero lengths would fail on their sum alone, never reaching
		// the wrap.
		t.Fatal("no record win prunes is followed by one it keeps")
	}
	return oneBlockSeed(t, raw, meta, recs, lens, []byte{0})
}

// strayPointPaySeed is writeFuzzSeed's native file rewritten as one block
// in which record 5 — a point record, whose schema keeps no payload — has
// a one-byte payload span, under valid CRCs: the row reader's Join leaves
// the byte unread, and the column reader must fail on it at load too.
func strayPointPaySeed(t testing.TB) []byte {
	t.Helper()
	raw, meta, recs := writeFuzzSeed(t, 64)
	lens := make([]int64, len(recs))
	lens[5] = 1
	return oneBlockSeed(t, raw, meta, recs, lens, []byte{7})
}

// oneBlockSeed rewrites raw, writeFuzzSeed's native file of recs in one
// block, with its ids, lon, lat, t and str columns kept as written and
// the given payload span lengths and payload stream.
func oneBlockSeed(t testing.TB, raw []byte, meta *Metadata, recs []rec, lens []int64, pay []byte) []byte {
	t.Helper()
	var cols []byte
	if err := codec.Catch(func() {
		r := codec.NewReader(raw[blockHeaderLen:])
		br := codec.NewReader(r.Frame())
		n := br.Uvarint()
		w := codec.NewWriter(0)
		w.PutUvarint(n)
		for i := 0; i < 5; i++ { // ids, lon, lat, t, str: kept as written
			w.PutFrame(br.Frame())
		}
		cols = w.Bytes()
	}); err != nil {
		t.Fatal(err)
	}
	lw := codec.NewWriter(0)
	lw.PutInt64Col(lens)
	var got []int64
	if err := codec.Catch(func() {
		got = codec.Int64Col(lw.Bytes(), len(lens), nil)
	}); err != nil || !slices.Equal(got, lens) {
		t.Fatalf("PayLen column decodes to %v (err %v), want %v", got, err, lens)
	}
	bw := codec.NewWriter(0)
	bw.PutRaw(cols)
	bw.PutFrame(lw.Bytes())
	bw.PutFrame(pay)
	block := bw.Bytes()
	out := codec.NewWriter(0)
	out.PutRaw([]byte(v3Magic))
	out.PutFrame(block)
	footerOff := int64(out.Len())
	bounds := index.EmptyBox()
	for _, v := range recs {
		bounds = bounds.Union(recBox(v))
	}
	fw := codec.NewWriter(0)
	fw.PutRaw([]byte{colProfile(recC)})
	encodeFooter(fw, []BlockMeta{{Offset: blockHeaderLen, Stored: footerOff - blockHeaderLen,
		Raw: int64(len(block)), Count: meta.Partitions[0].Count, Bounds: bounds}})
	out.PutFrame(fw.Bytes())
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(footerOff))
	copy(trailer[8:], v3TrailerMagic)
	out.PutRaw(trailer[:])
	return out.Bytes()
}

// TestPayLenWrapRejected pins payLenWrapSeed's outcome: both the whole
// read and the windowed one fail with a corruption error.
func TestPayLenWrapRejected(t *testing.T) {
	_, meta, _ := writeFuzzSeed(t, 8)
	win := []index.Box{{Max: [index.Dims]float64{5, 5, 500}}}
	seed := payLenWrapSeed(t, win)
	for _, w := range [][]index.Box{nil, win} {
		if _, err := readBytesAsPartition(t, meta, seed, w); !errors.As(err, new(codec.ErrCorrupt)) {
			t.Fatalf("windows %v: read returned %v, want a corruption error", w, err)
		}
	}
}

// TestStrayPointPayloadRejected pins strayPointPaySeed's outcome: the row
// reader's full read and the column reader's load both fail with a
// corruption error, so the stray byte never reaches a later Join.
func TestStrayPointPayloadRejected(t *testing.T) {
	_, meta, _ := writeFuzzSeed(t, 8)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, meta.Partitions[0].File), strayPointPaySeed(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPartitionPruned(dir, meta, 0, recC, nil); !errors.As(err, new(codec.ErrCorrupt)) {
		t.Fatalf("row read returned %v, want a corruption error", err)
	}
	if _, _, _, err := ReadBase(dir, meta, 0, recC, recBox); !errors.As(err, new(codec.ErrCorrupt)) {
		t.Fatalf("column read returned %v, want a corruption error", err)
	}
}
