package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"st4ml/internal/codec"
)

// TestBitFlipCorruptionDetected flips bytes in an on-disk partition file and
// asserts the framed read path reports a checksum mismatch for every flip
// position — corruption is never silently decoded.
func TestBitFlipCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	parts := makeParts(rng, 2, 50)
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "corrupt"})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Framed {
		t.Fatal("new datasets should be written framed")
	}
	path := filepath.Join(dir, meta.Partitions[0].File)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte at a spread of offsets (header, checksum, payload).
	for _, off := range []int{0, 3, 5, len(pristine) / 2, len(pristine) - 1} {
		bad := append([]byte(nil), pristine...)
		bad[off] ^= 0x5A
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadPartition(dir, meta, 0, recC)
		if err == nil {
			t.Fatalf("flip at offset %d decoded silently", off)
		}
		if !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("flip at offset %d: error does not mention corruption: %v", off, err)
		}
	}
	// Restoring the pristine bytes recovers the partition in full.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartition(dir, meta, 0, recC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, parts[0]) {
		t.Error("restored partition decoded incorrectly")
	}
}

// TestTruncatedPartitionDetected cuts a framed partition file short and
// asserts the reader reports it rather than returning a record prefix.
func TestTruncatedPartitionDetected(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(4))
	meta, err := Write(dir, recC, makeParts(rng, 1, 40), recBox, WriteOptions{Name: "trunc"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, meta.Partitions[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPartition(dir, meta, 0, recC); err == nil {
		t.Fatal("truncated partition decoded silently")
	}
}

// TestLegacyUnframedDatasetStillReads writes a bare (pre-framing) record
// stream by hand under metadata with Framed=false — a dataset persisted
// before checksums. The query path refuses it with ErrLegacyFormat; the
// compaction pass migrates it to v3 with every record intact, while a
// stream cut mid-record fails the pass with a corruption error and
// commits nothing.
func TestLegacyUnframedDatasetStillReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	part := makeParts(rng, 1, 30)[0]
	w := codec.NewWriter(1 << 12)
	for _, v := range part {
		recC.Enc(w, v)
	}
	meta := &Metadata{
		Name:       "legacy",
		TotalCount: int64(len(part)),
		Partitions: []PartitionMeta{{File: partitionFileName(0), Count: int64(len(part))}},
	}
	dir := t.TempDir()
	if err := migrateBytes(t, dir, meta, w.Bytes()[:w.Len()-3]); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("cut stream: migration returned %v, want a corruption error", err)
	}

	dir = t.TempDir()
	if err := writeMetadata(dir, meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, partitionFileName(0)), w.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var le ErrLegacyFormat
	if _, err := ReadPartition(dir, meta, 0, recC); !errors.As(err, &le) || le.Version != 1 {
		t.Fatalf("unframed read: %v, want ErrLegacyFormat v1", err)
	}
	if err := migrateBytes(t, dir, meta, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	migrated, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartition(dir, migrated, 0, recC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical(got), canonical(part)) {
		t.Error("legacy partition migrated incorrectly")
	}
}
