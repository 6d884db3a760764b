package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"st4ml/internal/index"
	"st4ml/internal/summary"
)

// summaryCount is how many of m's partitions carry a live summary sidecar.
func summaryCount(m *Metadata) int {
	n := 0
	for i := range m.Partitions {
		if _, ok := m.SummaryFor(i); ok {
			n++
		}
	}
	return n
}

func recVal(v rec) (float64, bool) { return float64(v.T), true }
func recID(v rec) int64            { return int64(v.T % 7) }

var recSummarizer = summary.NewBuilder(recBox, recVal, recID, summary.Config{})

// TestBuildSummaries: backfill writes one committed sidecar per partition,
// aligned with the base file's block layout, and re-running is a no-op. A
// v1/v2 dataset is refused with ErrLegacyFormat and nothing committed.
func TestBuildSummaries(t *testing.T) {
	for _, version := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(42))
		parts := makeParts(rng, 3, 90)
		dir := t.TempDir()
		if _, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "d", BlockRecords: 16}); err != nil {
			t.Fatal(err)
		}
		if version < FormatVersion {
			markLegacy(t, dir, version)
			var le ErrLegacyFormat
			if n, err := BuildSummaries(dir, recC, recBox, recVal, recID, summary.Config{}); n != 0 ||
				!errors.As(err, &le) || le.Version != version {
				t.Fatalf("v%d: BuildSummaries = (%d, %v), want ErrLegacyFormat v%d", version, n, err, version)
			}
			if _, err := os.Stat(filepath.Join(dir, ManifestFile)); !os.IsNotExist(err) {
				t.Fatalf("v%d: refused backfill committed a manifest", version)
			}
			continue
		}
		n, err := BuildSummaries(dir, recC, recBox, recVal, recID, summary.Config{})
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if n != 3 {
			t.Fatalf("v%d: built %d summaries, want 3", version, n)
		}
		meta, err := ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if summaryCount(meta) != 3 || meta.Generation == 0 {
			t.Fatalf("v%d: summaries=%d gen=%d", version, summaryCount(meta), meta.Generation)
		}
		for i := range parts {
			sm, ok := meta.SummaryFor(i)
			if !ok {
				t.Fatalf("v%d: no summary for partition %d", version, i)
			}
			ps, err := ReadSummary(dir, sm)
			if err != nil {
				t.Fatal(err)
			}
			if ps.Count != int64(len(parts[i])) {
				t.Fatalf("v%d: summary count %d, want %d", version, ps.Count, len(parts[i]))
			}
			if wantBlocks := (len(parts[i]) + 15) / 16; len(ps.Blocks) != wantBlocks {
				t.Fatalf("v%d: %d summary blocks, want %d", version, len(ps.Blocks), wantBlocks)
			}
			// Block summaries mirror the file: scanning exactly block b's
			// records must reproduce its recorded count and bounds.
			for b := range ps.Blocks {
				recs, _, err := ReadPartitionBlocks(dir, meta, i, recC, map[int]bool{b: true})
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(recs)) != ps.Blocks[b].Count {
					t.Fatalf("v%d: block %d read %d records, summary says %d",
						version, b, len(recs), ps.Blocks[b].Count)
				}
				bounds := index.EmptyBox()
				for _, r := range recs {
					bounds = bounds.Union(recBox(r))
				}
				if bounds != ps.Blocks[b].Bounds {
					t.Fatalf("v%d: block %d bounds mismatch", version, b)
				}
			}
		}
		// Idempotent: everything current, nothing rebuilt, no new commit.
		gen := meta.Generation
		if n, err := BuildSummaries(dir, recC, recBox, recVal, recID, summary.Config{}); err != nil || n != 0 {
			t.Fatalf("v%d: rebuild = (%d, %v), want (0, nil)", version, n, err)
		}
		meta2, _ := ReadMetadata(dir)
		if meta2.Generation != gen {
			t.Fatalf("v%d: no-op pass bumped generation %d → %d", version, gen, meta2.Generation)
		}
	}
}

// TestCompactionMaintainsSummaries: appends invalidate nothing (the base
// sidecar still describes the base file; deltas ride alongside), a
// summarizing compaction rewrites the base+sidecar pair, and a
// non-summarizing compaction drops the entry instead of serving a stale
// sidecar.
func TestCompactionMaintainsSummaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := makeParts(rng, 2, 60)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "d", BlockRecords: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSummaries(dir, recC, recBox, recVal, recID, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	extra := makeParts(rng, 2, 25)
	if _, err := AppendDelta(dir, recC, append(extra[0], extra[1]...), recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, _ := ReadMetadata(dir)
	if summaryCount(meta) != 2 {
		t.Fatalf("append should keep base sidecars, have %d", summaryCount(meta))
	}

	// Summarizing compaction: fresh pair, count covers folded-in deltas.
	st, err := Compact(dir, recC, recBox, CompactOptions{GCGrace: -1, Summarizer: recSummarizer})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsCompacted == 0 {
		t.Fatal("nothing compacted")
	}
	meta, _ = ReadMetadata(dir)
	total := int64(0)
	for i := 0; i < meta.NumPartitions(); i++ {
		sm, ok := meta.SummaryFor(i)
		if !ok {
			t.Fatalf("no summary for compacted partition %d", i)
		}
		if sm.Base != meta.Partitions[i].File {
			t.Fatalf("summary base %q != live base %q", sm.Base, meta.Partitions[i].File)
		}
		ps, err := ReadSummary(dir, sm)
		if err != nil {
			t.Fatal(err)
		}
		total += ps.Count
	}
	if want := int64(2*60 + 2*25); total != want {
		t.Fatalf("summarized %d records, want %d", total, want)
	}

	// Non-summarizing compaction after another append: the rewritten
	// partitions' entries drop (no stale sidecar is ever served); untouched
	// partitions keep theirs.
	if _, err := AppendDelta(dir, recC, makeParts(rng, 1, 10)[0], recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err = Compact(dir, recC, recBox, CompactOptions{GCGrace: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsCompacted == 0 {
		t.Fatal("nothing compacted")
	}
	meta, _ = ReadMetadata(dir)
	if want := meta.NumPartitions() - st.PartitionsCompacted; summaryCount(meta) != want {
		t.Fatalf("live summaries = %d, want %d (compacted %d of %d)",
			summaryCount(meta), want, st.PartitionsCompacted, meta.NumPartitions())
	}
}

// TestSummaryGC: sidecars of superseded base generations age out with
// their bases; live ones survive.
func TestSummaryGC(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dir := t.TempDir()
	if _, err := Write(dir, recC, makeParts(rng, 1, 40), recBox,
		WriteOptions{Name: "d", BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSummaries(dir, recC, recBox, recVal, recID, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendDelta(dir, recC, makeParts(rng, 1, 10)[0], recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	// Summarizing compaction supersedes part-00000.stp.sum's entry with
	// the rewrite's sidecar; old ages past the (zero) grace → reaped.
	if _, err := Compact(dir, recC, recBox, CompactOptions{GCGrace: 0, Summarizer: recSummarizer}); err != nil {
		t.Fatal(err)
	}
	var sums []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), summary.Suffix) {
			sums = append(sums, e.Name())
		}
	}
	meta, _ := ReadMetadata(dir)
	sm, ok := meta.SummaryFor(0)
	if !ok {
		t.Fatal("live summary missing after GC")
	}
	if !reflect.DeepEqual(sums, []string{sm.File}) {
		t.Fatalf("sidecars on disk after GC: %v, want only %q", sums, sm.File)
	}
	// An orphan younger than the grace window survives.
	orphan := filepath.Join(dir, "part-99999.stp"+summary.Suffix)
	if err := os.WriteFile(orphan, []byte("STSM"), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, _ := ReadManifest(dir)
	if _, err := collectGarbage(dir, mf, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatal("young orphan sidecar should survive grace window")
	}
	if _, err := collectGarbage(dir, mf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("aged orphan sidecar should be reaped")
	}
}

// TestReadSummaryCorrupt: a damaged sidecar fails loudly through the
// storage path too.
func TestReadSummaryCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dir := t.TempDir()
	if _, err := Write(dir, recC, makeParts(rng, 1, 30), recBox, WriteOptions{Name: "d"}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSummaries(dir, recC, recBox, recVal, recID, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	meta, _ := ReadMetadata(dir)
	sm, ok := meta.SummaryFor(0)
	if !ok {
		t.Fatal("no summary")
	}
	path := filepath.Join(dir, sm.File)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSummary(dir, sm); err == nil {
		t.Fatal("corrupt sidecar read silently")
	}
}
