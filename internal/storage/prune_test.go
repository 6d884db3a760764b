package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// encodeRecs flattens records to their canonical wire form so equality
// checks are byte-for-byte, not merely structural.
func encodeRecs(recs []rec) []string {
	out := make([]string, len(recs))
	w := codec.NewWriter(64)
	for i, r := range recs {
		w.Reset()
		recC.Enc(w, r)
		out[i] = string(w.Bytes())
	}
	return out
}

// storeLayout describes one dataset shape for the metamorphic suites.
type storeLayout struct {
	name    string
	seed    int64
	nParts  int
	perPart int
}

func storeLayouts() []storeLayout {
	return []storeLayout{
		{name: "small-a", seed: 11, nParts: 2, perPart: 37},
		{name: "small-b", seed: 12, nParts: 2, perPart: 37},
		{name: "wide-a", seed: 13, nParts: 4, perPart: 300},
		{name: "wide-b", seed: 14, nParts: 4, perPart: 300},
	}
}

// windowKinds builds the query-window kinds the suite sweeps: full-cover,
// random small boxes, a boundary window that touches a record's exact
// coordinates, a degenerate zero-volume window pinned on a record, and a
// window disjoint from the whole dataset.
func windowKinds(rng *rand.Rand, parts [][]rec) map[string]index.Box {
	// Pick a record to pin boundary and degenerate windows on.
	pin := parts[0][len(parts[0])/2]
	pinBox := recBox(pin)
	boundary := index.Box{}
	for d := 0; d < index.Dims; d++ {
		// Window's max touches the record's min exactly: closed-interval
		// intersection must still find it.
		boundary.Min[d] = pinBox.Min[d] - 5
		boundary.Max[d] = pinBox.Min[d]
	}
	small := index.Box{}
	x, y, ti := rng.Float64()*40, rng.Float64()*10, float64(rng.Int63n(4000))
	small.Min = [index.Dims]float64{x, y, ti}
	small.Max = [index.Dims]float64{x + 3, y + 2, ti + 300}
	return map[string]index.Box{
		"full": {
			Min: [index.Dims]float64{-1e9, -1e9, -1e15},
			Max: [index.Dims]float64{1e9, 1e9, 1e15},
		},
		"small":      small,
		"boundary":   boundary,
		"degenerate": pinBox,
		"disjoint": {
			Min: [index.Dims]float64{1e6, 1e6, 1e12},
			Max: [index.Dims]float64{2e6, 2e6, 2e12},
		},
	}
}

// metaFormats are the codec shapes the metamorphic suite sweeps: the
// columnar v3 layout driven by a Columnar schema (per-record predicate
// active), and v3's generic row fallback for codecs without one.
var metaFormats = []struct {
	name string
	c    codec.Codec[rec]
}{
	{"v3", recC},
	{"v3-generic", recRowC},
}

// TestMetamorphicBlockPrunedEqualsFull is the storage analogue of the
// selection metamorphic suite: across layouts × block sizes × formats ×
// window kinds (≥128 combos), a pruned read must agree byte-for-byte with
// a full scan after both are filtered by the window — block pruning may
// only skip blocks no queried record lives in, and v3's per-record
// columnar predicate may only drop records outside every window.
func TestMetamorphicBlockPrunedEqualsFull(t *testing.T) {
	blockSizes := []int{1, 7, 64, 1024}
	combos := 0
	for _, fm := range metaFormats {
		for _, lay := range storeLayouts() {
			for _, bs := range blockSizes {
				rng := rand.New(rand.NewSource(lay.seed))
				parts := makeParts(rng, lay.nParts, lay.perPart)
				dir := t.TempDir()
				meta, err := Write(dir, fm.c, parts, recBox, WriteOptions{Name: lay.name, BlockRecords: bs})
				if err != nil {
					t.Fatalf("%s/%s/bs=%d: %v", fm.name, lay.name, bs, err)
				}
				if meta.Version != FormatVersion || meta.BlockRecords != bs {
					t.Fatalf("%s/%s/bs=%d: meta version=%d blockRecords=%d",
						fm.name, lay.name, bs, meta.Version, meta.BlockRecords)
				}
				for wname, win := range windowKinds(rng, parts) {
					combos++
					for pi := range parts {
						full, fullSt, err := ReadPartitionPruned(dir, meta, pi, fm.c, nil)
						if err != nil {
							t.Fatalf("%s/%s/bs=%d/%s p%d full: %v", fm.name, lay.name, bs, wname, pi, err)
						}
						if !reflect.DeepEqual(full, parts[pi]) {
							t.Fatalf("%s/%s/bs=%d p%d full scan mismatch", fm.name, lay.name, bs, pi)
						}
						pruned, st, err := ReadPartitionPruned(dir, meta, pi, fm.c, []index.Box{win})
						if err != nil {
							t.Fatalf("%s/%s/bs=%d/%s p%d pruned: %v", fm.name, lay.name, bs, wname, pi, err)
						}

						// Filtered equivalence, byte-for-byte.
						filter := func(recs []rec) []string {
							var kept []rec
							for _, r := range recs {
								if recBox(r).Intersects(win) {
									kept = append(kept, r)
								}
							}
							return encodeRecs(kept)
						}
						if got, want := filter(pruned), filter(full); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s/bs=%d/%s p%d: filtered pruned %d recs != filtered full %d recs",
								fm.name, lay.name, bs, wname, pi, len(got), len(want))
						}
						// The pruned read is an order-preserving subsequence of
						// the full scan (whole blocks in file order; v3's
						// columnar predicate only ever drops records).
						enc, fullEnc := encodeRecs(pruned), encodeRecs(full)
						j := 0
						for _, e := range enc {
							for j < len(fullEnc) && fullEnc[j] != e {
								j++
							}
							if j == len(fullEnc) {
								t.Fatalf("%s/%s/bs=%d/%s p%d: pruned result is not a subsequence of full scan",
									fm.name, lay.name, bs, wname, pi)
							}
							j++
						}

						// Stats invariants.
						wantBlocks := (len(parts[pi]) + bs - 1) / bs
						if fullSt.Blocks != wantBlocks || st.Blocks != wantBlocks {
							t.Fatalf("%s/%s/bs=%d p%d: Blocks=%d/%d want %d",
								fm.name, lay.name, bs, pi, fullSt.Blocks, st.Blocks, wantBlocks)
						}
						if st.BlocksScanned+st.BlocksPruned != st.Blocks {
							t.Fatalf("%s/%s/bs=%d/%s p%d: scanned %d + pruned %d != blocks %d",
								fm.name, lay.name, bs, wname, pi, st.BlocksScanned, st.BlocksPruned, st.Blocks)
						}
						if fullSt.BlocksPruned != 0 || fullSt.RawBytes == 0 && len(parts[pi]) > 0 {
							t.Fatalf("%s/%s/bs=%d p%d: full scan stats %+v", fm.name, lay.name, bs, pi, fullSt)
						}
						// A full scan never engages the columnar predicate.
						if fullSt.RecordsPruned != 0 {
							t.Fatalf("%s/%s/bs=%d p%d: full scan pruned %d records",
								fm.name, lay.name, bs, pi, fullSt.RecordsPruned)
						}
						native := fm.name == "v3"
						if !native && st.RecordsPruned != 0 {
							t.Fatalf("%s/%s/bs=%d/%s p%d: non-columnar read pruned %d records",
								fm.name, lay.name, bs, wname, pi, st.RecordsPruned)
						}
						if native {
							// The columnar predicate materializes survivors only,
							// and accounts every record it drops.
							if got := filter(pruned); len(got) != len(pruned) {
								t.Fatalf("%s/%s/bs=%d/%s p%d: columnar read returned %d records, only %d match",
									fm.name, lay.name, bs, wname, pi, len(pruned), len(got))
							}
							scannedRecs := int64(len(pruned)) + st.RecordsPruned
							if scannedRecs < int64(len(filter(full))) || scannedRecs > int64(len(parts[pi])) {
								t.Fatalf("%s/%s/bs=%d/%s p%d: survivors %d + pruned %d outside [%d, %d]",
									fm.name, lay.name, bs, wname, pi, len(pruned), st.RecordsPruned,
									len(filter(full)), len(parts[pi]))
							}
						}
						switch wname {
						case "disjoint":
							if st.BlocksScanned != 0 || len(pruned) != 0 {
								t.Fatalf("%s/%s/bs=%d p%d: disjoint window scanned %d blocks, %d recs",
									fm.name, lay.name, bs, pi, st.BlocksScanned, len(pruned))
							}
						case "full":
							if st.BlocksPruned != 0 || len(pruned) != len(full) {
								t.Fatalf("%s/%s/bs=%d p%d: full window pruned %d blocks",
									fm.name, lay.name, bs, pi, st.BlocksPruned)
							}
						case "degenerate", "boundary":
							// The pinned record sits in partition 0 and must survive.
							if pi == 0 {
								want := encodeRecs([]rec{parts[0][len(parts[0])/2]})[0]
								found := false
								for _, e := range enc {
									if e == want {
										found = true
										break
									}
								}
								if !found {
									t.Fatalf("%s/%s/bs=%d/%s: pinned record pruned away", fm.name, lay.name, bs, wname)
								}
							}
						}
						if st.BytesRead > fullSt.BytesRead {
							t.Fatalf("%s/%s/bs=%d/%s p%d: pruned read %d bytes > full %d",
								fm.name, lay.name, bs, wname, pi, st.BytesRead, fullSt.BytesRead)
						}
					}
				}
			}
		}
	}
	if combos < 128 {
		t.Fatalf("only %d format×layout×blocksize×window combos, want ≥128", combos)
	}
}

// TestV2PrunedReadSkipsBytes pins the headline property: a small window
// over a multi-block partition reads strictly fewer bytes and
// decodes strictly fewer than the full scan.
func TestV2PrunedReadSkipsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	parts := makeParts(rng, 1, 4000)
	// Block pruning pays off when records are ST-clustered within the
	// partition, as ingest's in-partition ordering produces; emulate that
	// by sorting on time so consecutive blocks cover disjoint time slices.
	sort.Slice(parts[0], func(i, j int) bool { return parts[0][i].T < parts[0][j].T })
	dir := t.TempDir()
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{
		Name: "skip", BlockRecords: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, fullSt, err := ReadPartitionPruned(dir, meta, 0, recC, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A window around one record's instant: tiny time slice of partition 0.
	pin := recBox(parts[0][7])
	_, st, err := ReadPartitionPruned(dir, meta, 0, recC, []index.Box{pin})
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksPruned == 0 {
		t.Fatalf("degenerate window pruned no blocks: %+v", st)
	}
	if st.BytesRead >= fullSt.BytesRead || st.RawBytes >= fullSt.RawBytes {
		t.Fatalf("pruned read not cheaper: pruned %+v full %+v", st, fullSt)
	}
}

// TestV2EmptyPartition exercises the zero-block file: header + empty
// footer + trailer only.
func TestV2EmptyPartition(t *testing.T) {
	dir := t.TempDir()
	meta, err := Write(dir, recC, [][]rec{{}}, recBox, WriteOptions{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ReadPartitionPruned(dir, meta, 0, recC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || st.Blocks != 0 || st.BlocksScanned != 0 {
		t.Fatalf("empty partition: recs=%d stats=%+v", len(got), st)
	}
}

// TestV2MultiWindowUnion checks that several windows prune like their
// union: a record matching any window is always returned.
func TestV2MultiWindowUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	parts := makeParts(rng, 1, 500)
	dir := t.TempDir()
	meta, err := Write(dir, recC, parts, recBox, WriteOptions{BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	wins := []index.Box{recBox(parts[0][3]), recBox(parts[0][450])}
	got, _, err := ReadPartitionPruned(dir, meta, 0, recC, wins)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeRecs(got)
	for _, want := range encodeRecs([]rec{parts[0][3], parts[0][450]}) {
		found := false
		for _, e := range enc {
			if e == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatal("record matching one of several windows was pruned")
		}
	}
}
