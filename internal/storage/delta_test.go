package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"st4ml/internal/index"
)

// readAll reads every partition through the merge-on-read path and returns
// the window-filtered records in canonical sorted wire form, so equality
// checks are byte-for-byte and independent of partitioning and file order.
func readAll(t *testing.T, dir string, windows []index.Box) []string {
	t.Helper()
	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []rec
	for pi := 0; pi < meta.NumPartitions(); pi++ {
		recs, _, err := ReadPartitionPruned(dir, meta, pi, recC, windows)
		if err != nil {
			t.Fatalf("partition %d: %v", pi, err)
		}
		for _, r := range recs {
			if windows == nil || boxIntersectsAny(recBox(r), windows) {
				all = append(all, r)
			}
		}
	}
	enc := encodeRecs(all)
	sort.Strings(enc)
	return enc
}

func canonical(recs []rec) []string {
	enc := encodeRecs(recs)
	sort.Strings(enc)
	return enc
}

func TestAppendDeltaMergeOnRead(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	parts := makeParts(rng, 3, 80)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "d", BlockRecords: 16}); err != nil {
		t.Fatal(err)
	}
	extra := makeParts(rng, 1, 55)[0]
	mf, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{BatchID: "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if mf.Generation != 1 {
		t.Fatalf("generation = %d, want 1", mf.Generation)
	}
	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3*80 + 55); meta.TotalCount != want {
		t.Fatalf("TotalCount = %d, want %d", meta.TotalCount, want)
	}
	if meta.DeltaCount() == 0 || meta.Generation != 1 {
		t.Fatalf("deltas=%d generation=%d", meta.DeltaCount(), meta.Generation)
	}
	var combined []rec
	for _, p := range parts {
		combined = append(combined, p...)
	}
	combined = append(combined, extra...)
	if got, want := readAll(t, dir, nil), canonical(combined); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged read %d records, want %d", len(got), len(want))
	}

	// Same batch id again: exactly-once, nothing changes.
	mf2, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{BatchID: "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if mf2.Generation != 1 {
		t.Fatalf("replayed batch bumped generation to %d", mf2.Generation)
	}
	if got := readAll(t, dir, nil); !reflect.DeepEqual(got, canonical(combined)) {
		t.Fatal("replayed batch changed the dataset")
	}
}

func TestAppendDeltaErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := AppendDelta(dir, recC, []rec{{}}, recBox, AppendOptions{}); err == nil {
		t.Fatal("append to a missing dataset succeeded")
	}
	if _, err := Write(dir, recC, [][]rec{}, recBox, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := AppendDelta(dir, recC, []rec{{}}, recBox, AppendOptions{}); err == nil {
		t.Fatal("append to a zero-partition dataset succeeded")
	}
}

func TestCompactFoldsDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	parts := makeParts(rng, 2, 60)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "c", BlockRecords: 16}); err != nil {
		t.Fatal(err)
	}
	var combined []rec
	for _, p := range parts {
		combined = append(combined, p...)
	}
	for b := 0; b < 3; b++ {
		extra := makeParts(rng, 1, 25)[0]
		combined = append(combined, extra...)
		if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	want := canonical(combined)
	if got := readAll(t, dir, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("pre-compaction read mismatch")
	}

	st, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsCompacted == 0 || st.DeltasMerged == 0 {
		t.Fatalf("stats %+v", st)
	}
	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.DeltaCount() != 0 {
		t.Fatalf("%d deltas survive compaction", meta.DeltaCount())
	}
	if meta.Generation != st.Generation || meta.Generation == 0 {
		t.Fatalf("generation meta=%d stats=%d", meta.Generation, st.Generation)
	}
	if got := readAll(t, dir, nil); !reflect.DeepEqual(got, want) {
		t.Fatal("post-compaction read mismatch")
	}
	// The rewritten bases are generation-suffixed v2 files; the folded
	// deltas and superseded bases are gone (grace 0).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "delta-") {
			t.Fatalf("delta file %s survived GC", e.Name())
		}
	}
	// Only partitions that carried deltas are rewritten; those must be
	// generation-suffixed v2 files.
	rewritten := 0
	for pi := 0; pi < meta.NumPartitions(); pi++ {
		pm := meta.Partitions[pi]
		if strings.Contains(pm.File, "-g") {
			rewritten++
			if pm.Format != FormatVersion {
				t.Fatalf("rewritten partition %d file=%s format=%d", pi, pm.File, pm.Format)
			}
		}
	}
	if rewritten != st.PartitionsCompacted || rewritten == 0 {
		t.Fatalf("%d generation-suffixed partitions, stats say %d", rewritten, st.PartitionsCompacted)
	}

	// A second pass finds nothing to do.
	st2, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st2.PartitionsCompacted != 0 || st2.Generation != st.Generation {
		t.Fatalf("idle pass %+v", st2)
	}
}

// TestCompactV1Dataset pins the refusal of a v1 dataset that took delta
// appends (written as v3): the query path refuses its base with
// ErrLegacyFormat, and a compaction pass — whatever MinDeltas says —
// refuses it too, before it writes, commits or collects anything, so the
// directory stays byte-identical.
func TestCompactV1Dataset(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	parts := makeParts(rng, 3, 50)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "v1"}); err != nil {
		t.Fatal(err)
	}
	extra := make([]rec, 20)
	for i := range extra {
		extra[i] = parts[0][i%len(parts[0])]
		extra[i].T++
	}
	if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	markLegacy(t, dir, 1)
	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	var le ErrLegacyFormat
	if _, _, err := ReadPartitionPruned(dir, meta, 0, recC, nil); !errors.As(err, &le) || le.Version != 1 {
		t.Fatalf("v1 read: %v, want ErrLegacyFormat v1", err)
	}
	before := snapshotDir(t, dir)
	for _, minDeltas := range []int{1, 100} {
		st, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: minDeltas, GCGrace: 0})
		if !errors.As(err, &le) || le.Dir != dir || le.File != meta.Partitions[0].File || le.Version != 1 {
			t.Fatalf("MinDeltas %d: Compact returned %v, want ErrLegacyFormat naming %s v1",
				minDeltas, err, meta.Partitions[0].File)
		}
		if st != (CompactStats{}) {
			t.Fatalf("MinDeltas %d: refused pass reports %+v", minDeltas, st)
		}
		if !reflect.DeepEqual(snapshotDir(t, dir), before) {
			t.Fatalf("MinDeltas %d: the refused pass changed the dataset's files", minDeltas)
		}
	}
}

// TestMetamorphicDeltaEquivalence is the delta layer's core contract,
// swept across layouts × block sizes × batch counts × window kinds (≥64
// combos): a store grown by delta appends must answer every window
// byte-for-byte identically to (a) the same store after compaction and
// (b) a store rebuilt from scratch with all the records.
func TestMetamorphicDeltaEquivalence(t *testing.T) {
	blockSizes := []int{7, 64}
	batchCounts := []int{1, 3}
	combos := 0
	for _, lay := range storeLayouts() {
		for _, bs := range blockSizes {
			for _, nb := range batchCounts {
				rng := rand.New(rand.NewSource(lay.seed * 100))
				parts := makeParts(rng, lay.nParts, lay.perPart)
				var combined []rec
				for _, p := range parts {
					combined = append(combined, p...)
				}

				deltaDir := t.TempDir()
				if _, err := Write(deltaDir, recC, parts, recBox, WriteOptions{
					Name: lay.name, BlockRecords: bs,
				}); err != nil {
					t.Fatal(err)
				}
				for b := 0; b < nb; b++ {
					extra := makeParts(rng, 1, 20+b*7)[0]
					combined = append(combined, extra...)
					if _, err := AppendDelta(deltaDir, recC, extra, recBox, AppendOptions{}); err != nil {
						t.Fatal(err)
					}
				}

				// Rebuild: every record in one fresh ingest (different
				// partitioning is fine — comparison is canonical).
				rebuildDir := t.TempDir()
				rebuilt := [][]rec{combined}
				if _, err := Write(rebuildDir, recC, rebuilt, recBox, WriteOptions{
					Name: lay.name, BlockRecords: bs,
				}); err != nil {
					t.Fatal(err)
				}

				windows := windowKinds(rng, parts)
				type state struct {
					name string
					dir  string
				}
				measure := func(states []state) {
					for wname, win := range windows {
						combos++
						var got [][]string
						for _, s := range states {
							got = append(got, readAll(t, s.dir, []index.Box{win}))
						}
						for i := 1; i < len(got); i++ {
							if !reflect.DeepEqual(got[0], got[i]) {
								t.Fatalf("%s/bs=%d/nb=%d/%s: %s has %d records, %s has %d",
									lay.name, bs, nb, wname,
									states[0].name, len(got[0]), states[i].name, len(got[i]))
							}
						}
					}
				}
				measure([]state{{"deltas", deltaDir}, {"rebuild", rebuildDir}})

				if _, err := Compact(deltaDir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: 0}); err != nil {
					t.Fatal(err)
				}
				measure([]state{{"compacted", deltaDir}, {"rebuild", rebuildDir}})
			}
		}
	}
	if combos < 64 {
		t.Fatalf("only %d combos, want ≥64", combos)
	}
}

// TestDeltaCrossFormatMerge pins merge-on-read across file formats: a v3
// store takes delta appends (written in the current columnar format) and
// carries one delta committed before the columnar layout (a manifest entry
// with no format, which means a v2 file). Readers refuse that delta by
// name — the delta reader, the merge-on-read path of its partition, and
// CheckFormat — while partitions whose files are all v3 keep answering
// every window exactly like an in-memory filter of their records; a
// compaction pass refuses the store and leaves it byte-identical.
func TestDeltaCrossFormatMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	parts := makeParts(rng, 3, 60)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{Name: "xfmt", BlockRecords: 16}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		extra := make([]rec, 25)
		for i := range extra {
			extra[i] = parts[0][(b*25+i)%len(parts[0])]
			extra[i].T += int64(b + 1)
		}
		if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// A pre-columnar delta on partition 2: a manifest entry without a
	// format. The refusal comes before the file is opened, so its bytes are
	// a copy of partition 2's base.
	mf, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	dm := DeltaMeta{Partition: 2, Seq: mf.NextSeq, PartitionMeta: meta.Partitions[2]}
	dm.File = deltaFileName(2, dm.Seq)
	raw, err := os.ReadFile(filepath.Join(dir, meta.Partitions[2].File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, dm.File), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mf.NextSeq++
	mf.Generation++
	mf.Deltas = append(mf.Deltas, dm)
	if err := writeManifest(dir, mf); err != nil {
		t.Fatal(err)
	}

	if meta, err = ReadMetadata(dir); err != nil {
		t.Fatal(err)
	}
	var le ErrLegacyFormat
	if _, _, _, err := ReadDelta(dir, dm, recC, nil); !errors.As(err, &le) || le.File != dm.File || le.Version != 2 {
		t.Fatalf("v2 delta read: %v, want ErrLegacyFormat naming %s", err, dm.File)
	}
	if _, _, err := ReadPartitionPruned(dir, meta, 2, recC, nil); !errors.As(err, &le) || le.File != dm.File {
		t.Fatalf("partition 2 read: %v, want ErrLegacyFormat naming %s", err, dm.File)
	}
	if err := meta.CheckFormat(dir); !errors.As(err, &le) || le.File != dm.File {
		t.Fatalf("CheckFormat: %v, want ErrLegacyFormat naming %s", err, dm.File)
	}
	live := map[int][]rec{}
	for pi := 0; pi < 2; pi++ {
		if live[pi], err = ReadPartition(dir, meta, pi, recC); err != nil {
			t.Fatalf("partition %d: %v", pi, err)
		}
	}
	if len(live[0]) != len(parts[0])+50 || len(live[1]) != len(parts[1]) {
		t.Fatalf("partitions hold %d and %d records, want %d and %d",
			len(live[0]), len(live[1]), len(parts[0])+50, len(parts[1]))
	}
	for wname, win := range windowKinds(rng, parts) {
		for pi, recs := range live {
			var want []rec
			for _, r := range recs {
				if recBox(r).Intersects(win) {
					want = append(want, r)
				}
			}
			got, _, err := ReadPartitionPruned(dir, meta, pi, recC, []index.Box{win})
			if err != nil {
				t.Fatal(err)
			}
			var kept []rec
			for _, r := range got {
				if recBox(r).Intersects(win) {
					kept = append(kept, r)
				}
			}
			if !reflect.DeepEqual(canonical(kept), canonical(want)) {
				t.Fatalf("%s: partition %d read %d records, want %d", wname, pi, len(kept), len(want))
			}
		}
	}

	before := snapshotDir(t, dir)
	if _, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: 0}); !errors.As(err, &le) || le.File != dm.File {
		t.Fatalf("Compact: %v, want ErrLegacyFormat naming %s", err, dm.File)
	}
	if !reflect.DeepEqual(snapshotDir(t, dir), before) {
		t.Fatal("the refused pass changed the dataset's files")
	}
}

// crashPanic is the sentinel the chaos hook throws.
type crashPanic struct{ point string }

// TestChaosCrashSafety kills the appender and the compactor at every
// injection point of their protocols and proves the invariant behind the
// manifest-swap design: at any crash the dataset reads as a consistent
// state (never torn), no committed record is lost, and replaying the
// interrupted batch commits it exactly once.
func TestChaosCrashSafety(t *testing.T) {
	appendPoints := []string{"append:delta-written", "manifest:tmp"}
	compactPoints := []string{"compact:base-written", "manifest:tmp", "compact:swapped"}
	defer func() { crashHook = nil }()

	for _, point := range appendPoints {
		rng := rand.New(rand.NewSource(81))
		parts := makeParts(rng, 2, 40)
		dir := t.TempDir()
		if _, err := Write(dir, recC, parts, recBox, WriteOptions{BlockRecords: 8}); err != nil {
			t.Fatal(err)
		}
		var base []rec
		for _, p := range parts {
			base = append(base, p...)
		}
		extra := makeParts(rng, 1, 30)[0]

		crashHook = func(p string) {
			if p == point {
				panic(crashPanic{p})
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: append did not crash", point)
				}
			}()
			_, _ = AppendDelta(dir, recC, extra, recBox, AppendOptions{BatchID: "chaos"})
		}()
		crashHook = nil

		// Both crash points precede the manifest rename, so the batch must
		// be invisible: the dataset still reads as exactly the base.
		if got := readAll(t, dir, nil); !reflect.DeepEqual(got, canonical(base)) {
			t.Fatalf("%s: torn state after crash", point)
		}
		// Replay commits it exactly once.
		if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{BatchID: "chaos"}); err != nil {
			t.Fatal(err)
		}
		want := canonical(append(append([]rec{}, base...), extra...))
		if got := readAll(t, dir, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: replay lost or duplicated records", point)
		}
		// And replaying the committed batch again is a no-op.
		if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{BatchID: "chaos"}); err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, dir, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: second replay changed the dataset", point)
		}
	}

	for _, point := range compactPoints {
		rng := rand.New(rand.NewSource(91))
		parts := makeParts(rng, 2, 40)
		dir := t.TempDir()
		if _, err := Write(dir, recC, parts, recBox, WriteOptions{BlockRecords: 8}); err != nil {
			t.Fatal(err)
		}
		var combined []rec
		for _, p := range parts {
			combined = append(combined, p...)
		}
		extra := makeParts(rng, 1, 30)[0]
		combined = append(combined, extra...)
		if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
		want := canonical(combined)

		crashHook = func(p string) {
			if p == point {
				panic(crashPanic{p})
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("%s: compact did not crash", point)
				}
			}()
			_, _ = Compact(dir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: 0})
		}()
		crashHook = nil

		// Compaction only rearranges data: whichever side of the swap the
		// crash hit, the dataset must read as the same record set.
		if got := readAll(t, dir, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: records lost or duplicated by crashed compaction", point)
		}
		// A rerun completes the job and converges to zero deltas.
		if _, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: 0}); err != nil {
			t.Fatal(err)
		}
		meta, err := ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		if meta.DeltaCount() != 0 {
			t.Fatalf("%s: %d deltas survive the rerun", point, meta.DeltaCount())
		}
		if got := readAll(t, dir, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rerun corrupted the dataset", point)
		}
	}
}

// TestGCGraceKeepsRecentFiles pins the MVCC guard: a compaction with a
// long grace leaves the superseded files on disk for in-flight readers.
func TestGCGraceKeepsRecentFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	parts := makeParts(rng, 2, 40)
	dir := t.TempDir()
	if _, err := Write(dir, recC, parts, recBox, WriteOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	// A reader pins the pre-append, pre-compaction view.
	oldMeta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	extra := makeParts(rng, 1, 30)[0]
	if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 1, GCGrace: time.Hour}); err != nil {
		t.Fatal(err)
	}
	// The old view still reads in full from its original files.
	var got []rec
	for pi := 0; pi < oldMeta.NumPartitions(); pi++ {
		recs, _, err := ReadPartitionPruned(dir, oldMeta, pi, recC, nil)
		if err != nil {
			t.Fatalf("old view partition %d: %v", pi, err)
		}
		got = append(got, recs...)
	}
	var base []rec
	for _, p := range parts {
		base = append(base, p...)
	}
	if !reflect.DeepEqual(canonical(got), canonical(base)) {
		t.Fatal("pinned pre-compaction view no longer readable")
	}
}
