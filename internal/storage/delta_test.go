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

// TestCompactV1Dataset pins the migration of a v1 dataset: it takes delta
// appends (written as v3), the query path refuses it with ErrLegacyFormat,
// and one compaction pass rewrites every partition — the delta-free ones
// too, whatever MinDeltas says — as v3, after which the store reads back
// base and appended records alike.
func TestCompactV1Dataset(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	parts := makeParts(rng, 3, 50)
	dir := t.TempDir()
	if _, err := WriteLegacy(dir, recC, parts, recBox, LegacyOptions{Name: "v1", Version: 1}); err != nil {
		t.Fatal(err)
	}
	var combined []rec
	for _, p := range parts {
		combined = append(combined, p...)
	}
	// Records clustered near partition 0's extent, so routing leaves other
	// partitions delta-free.
	extra := make([]rec, 20)
	for i := range extra {
		extra[i] = parts[0][i%len(parts[0])]
		extra[i].T++
	}
	combined = append(combined, extra...)
	if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	var le ErrLegacyFormat
	if _, _, err := ReadPartitionPruned(dir, meta, 0, recC, nil); !errors.As(err, &le) || le.Version != 1 {
		t.Fatalf("v1 read: %v, want ErrLegacyFormat v1", err)
	}
	st, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 100, GCGrace: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsCompacted != len(parts) {
		t.Fatalf("migration rewrote %d of %d partitions", st.PartitionsCompacted, len(parts))
	}
	meta, err = ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.CheckFormat(dir); err != nil {
		t.Fatalf("migrated store: %v", err)
	}
	if got := readAll(t, dir, nil); !reflect.DeepEqual(got, canonical(combined)) {
		t.Fatal("v1 post-migration mismatch")
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
	for _, lay := range v2Layouts() {
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

				windows := v2Windows(rng, parts)
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

// TestDeltaCrossFormatMerge pins the mixed-generation migration path: a
// v2 gzip base takes delta appends (written in the current columnar
// format) and carries one delta committed before the columnar layout (a
// v2 file whose manifest entry has no format). The query path refuses
// both legacy kinds with ErrLegacyFormat; one compaction pass with a
// threshold no partition meets rewrites every partition as v3, and the
// migrated store answers every window exactly like an in-memory filter of
// all the records.
func TestDeltaCrossFormatMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	parts := makeParts(rng, 3, 60)
	dir := t.TempDir()
	if _, err := WriteLegacy(dir, recC, parts, recBox, LegacyOptions{
		Name: "xfmt", Version: 2, Compress: true, BlockRecords: 16,
	}); err != nil {
		t.Fatal(err)
	}
	var combined []rec
	for _, p := range parts {
		combined = append(combined, p...)
	}
	for b := 0; b < 2; b++ {
		extra := make([]rec, 25)
		for i := range extra {
			extra[i] = parts[0][(b*25+i)%len(parts[0])]
			extra[i].T += int64(b + 1)
		}
		combined = append(combined, extra...)
		if _, err := AppendDelta(dir, recC, extra, recBox, AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// A pre-columnar delta on partition 2: a v2 gzip file listed in the
	// manifest without a format.
	old := makeParts(rng, 1, 30)[0]
	combined = append(combined, old...)
	odir := t.TempDir()
	om, err := WriteLegacy(odir, recC, [][]rec{old}, recBox, LegacyOptions{
		Version: 2, Compress: true, BlockRecords: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	dm := DeltaMeta{Partition: 2, Seq: mf.NextSeq, PartitionMeta: om.Partitions[0]}
	dm.File = deltaFileName(2, dm.Seq)
	raw, err := os.ReadFile(filepath.Join(odir, om.Partitions[0].File))
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

	meta, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 {
		t.Fatalf("base version = %d, want 2", meta.Version)
	}
	deltas := meta.DeltaCount()
	var le ErrLegacyFormat
	if _, _, err := ReadPartitionPruned(dir, meta, 0, recC, nil); !errors.As(err, &le) || le.Version != 2 {
		t.Fatalf("v2 base read: %v, want ErrLegacyFormat v2", err)
	}
	if _, _, _, err := ReadDelta(dir, dm, recC, nil); !errors.As(err, &le) || le.File != dm.File || le.Version != 2 {
		t.Fatalf("v2 delta read: %v, want ErrLegacyFormat naming %s", err, dm.File)
	}
	if err := meta.CheckFormat(dir); !errors.As(err, &le) {
		t.Fatalf("CheckFormat: %v, want ErrLegacyFormat", err)
	}

	st, err := Compact(dir, recC, recBox, CompactOptions{MinDeltas: 100, GCGrace: 0})
	if err != nil {
		t.Fatal(err)
	}
	if st.PartitionsCompacted != len(parts) || st.DeltasMerged != deltas {
		t.Fatalf("migration compacted %d partitions and %d deltas, want %d and %d",
			st.PartitionsCompacted, st.DeltasMerged, len(parts), deltas)
	}
	meta, err = ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.DeltaCount() != 0 {
		t.Fatalf("%d deltas survive compaction", meta.DeltaCount())
	}
	if err := meta.CheckFormat(dir); err != nil {
		t.Fatalf("migrated store: %v", err)
	}
	for wname, win := range v2Windows(rng, parts) {
		var want []rec
		for _, r := range combined {
			if recBox(r).Intersects(win) {
				want = append(want, r)
			}
		}
		if got := readAll(t, dir, []index.Box{win}); !reflect.DeepEqual(got, canonical(want)) {
			t.Fatalf("%s: migrated read %d records, want %d", wname, len(got), len(want))
		}
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

// TestMergeMetadataCarriesDeltas pins that dataset unions rebase delta
// partition indexes alongside the base partitions.
func TestMergeMetadataCarriesDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	base := t.TempDir()
	d1, d2 := filepath.Join(base, "a"), filepath.Join(base, "b")
	p1, p2 := makeParts(rng, 2, 20), makeParts(rng, 2, 20)
	if _, err := Write(d1, recC, p1, recBox, WriteOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(d2, recC, p2, recBox, WriteOptions{BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	extra := makeParts(rng, 1, 15)[0]
	if _, err := AppendDelta(d2, recC, extra, recBox, AppendOptions{}); err != nil {
		t.Fatal(err)
	}
	m1, err := ReadMetadata(d1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMetadata(d2)
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeMetadata(map[string]*Metadata{"a": m1, "b": m2})
	if merged.DeltaCount() != m2.DeltaCount() || merged.DeltaCount() == 0 {
		t.Fatalf("merged deltas = %d, want %d", merged.DeltaCount(), m2.DeltaCount())
	}
	var got []rec
	for pi := 0; pi < merged.NumPartitions(); pi++ {
		recs, _, err := ReadPartitionPruned(base, merged, pi, recC, nil)
		if err != nil {
			t.Fatalf("merged partition %d: %v", pi, err)
		}
		got = append(got, recs...)
	}
	var want []rec
	for _, p := range append(p1, p2...) {
		want = append(want, p...)
	}
	want = append(want, extra...)
	if !reflect.DeepEqual(canonical(got), canonical(want)) {
		t.Fatalf("merged read %d records, want %d", len(got), len(want))
	}
}
