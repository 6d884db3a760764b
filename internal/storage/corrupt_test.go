package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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
	if meta.Version != FormatVersion {
		t.Fatalf("new datasets should be written as v%d, got v%d", FormatVersion, meta.Version)
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
