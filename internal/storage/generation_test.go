package storage

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestManifestGenerationReadsHead checks that every manifest writeManifest
// commits carries its generation in the head ManifestGeneration probes,
// from 0 to MaxInt64, with the rest of the manifest behind it.
func TestManifestGenerationReadsHead(t *testing.T) {
	for _, gen := range []int64{0, 1, 9, 10, 1234567, math.MaxInt64} {
		dir := t.TempDir()
		mf := &Manifest{
			Generation:     gen,
			NextSeq:        3,
			Deltas:         []DeltaMeta{{Partition: 1, Seq: 2, PartitionMeta: PartitionMeta{File: "delta-2.stp", Count: 4}}},
			AppliedBatches: []string{"b1"},
		}
		if err := writeManifest(dir, mf); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := parseManifestHead(b[:min(len(b), manifestHeadBytes)]); !ok || got != gen {
			t.Fatalf("generation %d: head probe = %d, %t; manifest opens %q", gen, got, ok, b[:min(len(b), manifestHeadBytes)])
		}
		if got, err := ManifestGeneration(dir); err != nil || got != gen {
			t.Fatalf("generation %d: ManifestGeneration = %d, %v", gen, got, err)
		}
	}
}

// TestManifestGenerationFallsBack checks that a manifest whose head is not
// writeManifest's — another layout, a cut file, a number the probe does not
// take — or a missing manifest gives what ReadManifest gives.
func TestManifestGenerationFallsBack(t *testing.T) {
	for name, body := range map[string]string{
		"compact":        `{"generation":7,"next_seq":3}`,
		"reordered":      "{\n  \"next_seq\": 3,\n  \"generation\": 7\n}",
		"leading space":  " \n{\n  \"generation\": 7,\n  \"next_seq\": 3\n}",
		"cut in digits":  "{\n  \"generation\": 12",
		"cut after head": "{\n  \"generation\": ",
		"empty":          "",
		"leading zero":   "{\n  \"generation\": 07,\n  \"next_seq\": 3\n}",
		"negative":       "{\n  \"generation\": -7,\n  \"next_seq\": 3\n}",
		"overflow":       "{\n  \"generation\": 9223372036854775808,\n  \"next_seq\": 3\n}",
		"fraction":       "{\n  \"generation\": 7.5,\n  \"next_seq\": 3\n}",
		"missing":        "",
	} {
		dir := t.TempDir()
		if name != "missing" {
			if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := parseManifestHead([]byte(body)); ok {
				t.Errorf("%s: head probe took %q", name, body)
			}
		}
		mf, werr := ReadManifest(dir)
		got, gerr := ManifestGeneration(dir)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Errorf("%s: ManifestGeneration error %v, ReadManifest error %v", name, gerr, werr)
		case werr == nil && got != mf.Generation:
			t.Errorf("%s: ManifestGeneration = %d, ReadManifest %d", name, got, mf.Generation)
		}
	}
}

// TestManifestCorruptBodyBehindValidHead checks that the head probe does
// not hide a corrupt manifest: the probe reports the head's generation,
// and the metadata read that a changed generation leads to fails.
func TestManifestCorruptBodyBehindValidHead(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dir := t.TempDir()
	if _, err := Write(dir, recC, makeParts(rng, 2, 40), recBox, WriteOptions{Name: "g", BlockRecords: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendDelta(dir, recC, makeParts(rng, 1, 10)[0], recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if gen, err := ManifestGeneration(dir); err != nil || gen != 1 {
		t.Fatalf("ManifestGeneration = %d, %v; want 1", gen, err)
	}
	corrupt := manifestHead + "2,\n  \"next_seq\": [oops"
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if gen, err := ManifestGeneration(dir); err != nil || gen != 2 {
		t.Fatalf("ManifestGeneration = %d, %v; want 2 from the head", gen, err)
	}
	if _, err := ReadMetadata(dir); err == nil {
		t.Fatal("ReadMetadata accepted a corrupt manifest")
	}
}
