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

// writeFuzzSeed produces the bytes of a small partition file of the given
// format version plus its metadata, shared by the fuzz targets and the
// byte-flip tests.
func writeFuzzSeed(t testing.TB, version int, compress bool, blockRecords int) ([]byte, *Metadata, []rec) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	parts := makeParts(rng, 1, 50)
	meta, err := WriteLegacy(dir, recC, parts, recBox, LegacyOptions{
		Name: "fuzz", Version: version, Compress: compress, BlockRecords: blockRecords,
	})
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

// readLegacyBytes writes data as partition 0 of a scratch dataset carrying
// meta's shape and reads it back whole through the legacy reader
// compaction uses.
func readLegacyBytes(t testing.TB, meta *Metadata, data []byte) ([]rec, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, meta.Partitions[0].File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return readAnyFormat(dir, meta, meta.Partitions[0], meta.partitionFormat(0), recC)
}

// FuzzV2Partition throws arbitrary bytes at the legacy reader — the only
// parser of v1/v2 bytes left, run by the compaction pass that migrates
// them — as a whole v2 file, plain and gzip, and as a whole framed v1
// file, plain and gzip. The invariants: the reader never panics
// (ErrCorrupt is always caught), and a read that succeeds returns exactly
// the record count the metadata promises — arbitrary corruption must
// surface as an error, never as silently wrong output.
func FuzzV2Partition(f *testing.F) {
	seedPlain, metaPlain, _ := writeFuzzSeed(f, 2, false, 8)
	seedGzip, metaGzip, _ := writeFuzzSeed(f, 2, true, 8)
	_, metaV1, _ := writeFuzzSeed(f, 1, false, 0)
	_, metaV1Gzip, _ := writeFuzzSeed(f, 1, true, 0)
	f.Add(seedPlain)
	f.Add(seedGzip)
	f.Add([]byte{})
	f.Add([]byte(v2Magic))
	f.Add(append(append([]byte(v2Magic), make([]byte, 12)...), v2TrailerMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, meta := range []*Metadata{metaPlain, metaGzip, metaV1, metaV1Gzip} {
			out, err := readLegacyBytes(t, meta, data)
			if err == nil && int64(len(out)) != meta.Partitions[0].Count {
				t.Fatalf("clean v%d read returned %d records, metadata says %d",
					meta.partitionFormat(0), len(out), meta.Partitions[0].Count)
			}
		}
	})
}

// FuzzBlockFooter drives the footer decoder directly: any byte soup must
// either decode or panic ErrCorrupt (converted by Catch), with the
// entry-size guard preventing absurd pre-allocations.
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

// migrateBytes writes data as partition 0 of a dataset carrying meta's
// shape under dir and runs the compaction pass that migrates it. A failed
// pass must commit no manifest.
func migrateBytes(t testing.TB, dir string, meta *Metadata, data []byte) error {
	t.Helper()
	if err := writeMetadata(dir, meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, meta.Partitions[0].File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Compact(dir, recC, recBox, CompactOptions{GCGrace: -1})
	if _, serr := os.Stat(filepath.Join(dir, ManifestFile)); err != nil && !os.IsNotExist(serr) {
		t.Fatalf("failed migration committed a manifest: %v", err)
	}
	return err
}

// TestV2EveryByteFlipDetected is the deterministic core of the fuzz
// contract: every byte of a v2 partition file is protected — header and
// trailer magics by explicit checks, the trailer offset by range
// validation, and everything else by a CRC32C frame — so flipping ANY
// single byte must fail the migration pass with a corruption error and
// commit nothing.
func TestV2EveryByteFlipDetected(t *testing.T) {
	for _, compress := range []bool{false, true} {
		raw, meta, _ := writeFuzzSeed(t, 2, compress, 8)
		dir := t.TempDir()
		for pos := 0; pos < len(raw); pos++ {
			mut := append([]byte{}, raw...)
			mut[pos] ^= 0x5a
			err := migrateBytes(t, dir, meta, mut)
			if !errors.As(err, new(codec.ErrCorrupt)) {
				t.Fatalf("compress=%v: flip at byte %d/%d: migration returned %v, want a corruption error",
					compress, pos, len(raw), err)
			}
		}
		if err := migrateBytes(t, dir, meta, raw); err != nil {
			t.Fatalf("compress=%v: pristine file failed to migrate: %v", compress, err)
		}
	}
}

// TestV2TruncationsDetected chops the file at every seventh length below
// full and expects the migration pass to fail with a corruption error
// each time.
func TestV2TruncationsDetected(t *testing.T) {
	raw, meta, _ := writeFuzzSeed(t, 2, true, 8)
	dir := t.TempDir()
	for n := 0; n < len(raw); n += 7 {
		if err := migrateBytes(t, dir, meta, raw[:n]); !errors.As(err, new(codec.ErrCorrupt)) {
			t.Fatalf("truncation to %d/%d bytes: migration returned %v, want a corruption error",
				n, len(raw), err)
		}
	}
}

// FuzzV3Block throws arbitrary bytes at the v3 columnar reader as a whole
// partition file, over both the native columnar path (recC carries a
// Columnar schema) and the generic row fallback, and — as an
// extended-record file — through the Columnar.Extent record test with
// windows set. Same contract as FuzzV2Partition: never panic, and a clean
// read returns exactly the promised record count. Corruption inside a
// record the extent test prunes is still an error.
func FuzzV3Block(f *testing.F) {
	seedNative, metaNative, _ := writeFuzzSeed(f, 3, false, 8)
	f.Add(seedNative)
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
	})
}

// TestV3EveryByteFlipDetected mirrors the v2 byte-flip wall for the
// columnar format: header and trailer magics are explicit, the footer
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
	raw, meta, _ := writeFuzzSeed(t, 3, false, 8)
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
	raw, meta, recs := writeFuzzSeed(t, 3, false, 64)
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
	bw.PutFrame([]byte{0})
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
	_, meta, _ := writeFuzzSeed(t, 3, false, 8)
	win := []index.Box{{Max: [index.Dims]float64{5, 5, 500}}}
	seed := payLenWrapSeed(t, win)
	for _, w := range [][]index.Box{nil, win} {
		if _, err := readBytesAsPartition(t, meta, seed, w); !errors.As(err, new(codec.ErrCorrupt)) {
			t.Fatalf("windows %v: read returned %v, want a corruption error", w, err)
		}
	}
}
