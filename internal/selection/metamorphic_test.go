package selection

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/partition"
	"st4ml/internal/tempo"
)

// This file is the metamorphic correctness suite for the selection stage:
// for ANY on-disk layout and ANY window set, SelectPruned must return the
// exact same multiset of records as the full-scan Select — byte-for-byte
// under the dataset codec, so even a lossy decode or a reordered field
// would fail the comparison. Pruning is an optimisation; it may never
// change an answer.

// encodedMultiset encodes every record with the dataset codec and returns
// the sorted encodings. Two RDDs are equivalent iff these compare equal —
// order-insensitive but duplicate- and byte-exact.
func encodedMultiset(evs []ev) []string {
	out := make([]string, len(evs))
	for i, v := range evs {
		w := codec.NewWriter(32)
		evC.Enc(w, v)
		out[i] = string(w.Bytes())
	}
	sort.Strings(out)
	return out
}

func multisetsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// metaLayout is one way of landing the corpus on disk.
type metaLayout struct {
	name   string
	ingest func(t *testing.T, ctx *engine.Context, dir string, data []ev, seed int64)
}

func plannerLayout(name string, p partition.Planner, mod func(*IngestOptions)) metaLayout {
	return metaLayout{name: name, ingest: func(t *testing.T, ctx *engine.Context, dir string, data []ev, seed int64) {
		t.Helper()
		r := engine.Parallelize(ctx, data, 8)
		opts := IngestOptions{Name: name, SampleFrac: 0.3, Seed: seed}
		if mod != nil {
			mod(&opts)
		}
		if _, err := Ingest(r, dir, evC, evBox, p, opts); err != nil {
			t.Fatal(err)
		}
	}}
}

// metaLayouts covers ST-aware partitioners at two granularities, a purely
// spatial partitioner, the ST-oblivious hash layout a plain pipeline would
// produce (partition bounds then come solely from storage.Write's
// per-partition record-box union), and block-layout variants: tiny and
// single-record blocks and unclustered blocks (worst-case footer bounds).
// Every layout is the columnar v3 format, run through evC's Columnar
// schema, so the per-record predicate is active across the whole suite;
// the v1/v2 read paths are swept by the storage package's format suite.
func metaLayouts() []metaLayout {
	return []metaLayout{
		plannerLayout("tstr4x4", partition.TSTR{GT: 4, GS: 4}, nil),
		plannerLayout("tstr2x8", partition.TSTR{GT: 2, GS: 8}, nil),
		plannerLayout("str2d9", partition.STR2D{N: 9}, nil),
		plannerLayout("tstr4x4-b16", partition.TSTR{GT: 4, GS: 4}, func(o *IngestOptions) {
			o.BlockRecords = 16
		}),
		plannerLayout("str2d9-b1", partition.STR2D{N: 9}, func(o *IngestOptions) {
			o.BlockRecords = 1
		}),
		plannerLayout("tstr4x4-nocluster", partition.TSTR{GT: 4, GS: 4}, func(o *IngestOptions) {
			o.BlockRecords = 32
			o.NoCluster = true
		}),
		{name: "hash6", ingest: func(t *testing.T, ctx *engine.Context, dir string, data []ev, seed int64) {
			t.Helper()
			r := engine.HashPartitionBy(engine.Parallelize(ctx, data, 8), evC, 6)
			if _, err := IngestUnpartitioned(r, dir, evC, evBox,
				IngestOptions{Name: "hash6", BlockRecords: 64}); err != nil {
				t.Fatal(err)
			}
		}},
	}
}

// metamorphicWindows draws one window set. The kinds cycle through the
// shapes that historically break pruning code: plain random ranges,
// multi-window unions, windows whose edges sit EXACTLY on record
// coordinates (boundary-touching: the record is extremal in its partition,
// so the window also touches the partition bound), degenerate zero-extent
// windows, and fully disjoint windows that must prune everything.
func metamorphicWindows(rng *rand.Rand, data []ev, kind int) []Window {
	randW := func() Window {
		x, y := rng.Float64()*90, rng.Float64()*90
		t0 := rng.Int63n(80000)
		return Window{
			Space: geom.Box(x, y, x+rng.Float64()*30, y+rng.Float64()*30),
			Time:  tempo.New(t0, t0+rng.Int63n(20000)+1),
		}
	}
	switch kind % 5 {
	case 0:
		return []Window{randW()}
	case 1:
		return []Window{randW(), randW(), randW()}
	case 2:
		// Boundary-touching: every edge of the window is an exact record
		// coordinate, so box intersection tests run on equal floats.
		a := data[rng.Intn(len(data))]
		b := data[rng.Intn(len(data))]
		return []Window{{
			Space: geom.Box(min(a.P.X, b.P.X), min(a.P.Y, b.P.Y),
				max(a.P.X, b.P.X), max(a.P.Y, b.P.Y)),
			Time: tempo.New(min(a.T, b.T), max(a.T, b.T)),
		}}
	case 3:
		// Degenerate: zero spatial extent and zero temporal extent pinned
		// on one record — selects at least that record, through pruning.
		a := data[rng.Intn(len(data))]
		return []Window{{
			Space: geom.Box(a.P.X, a.P.Y, a.P.X, a.P.Y),
			Time:  tempo.New(a.T, a.T),
		}}
	default:
		// Disjoint from the corpus domain: must select nothing and prune
		// every partition.
		return []Window{{
			Space: geom.Box(1000, 1000, 1100, 1100),
			Time:  tempo.New(200000, 300000),
		}}
	}
}

// TestMetamorphicPrunedEqualsFull is the suite entry point: 7 layouts x 2
// index modes x 8 seeded window sets = 112 combos, each asserting the
// byte-for-byte multiset identity SelectPruned(w) == Select(w), plus the
// structural invariants pruning promises (never loads more than the full
// scan; empty window sets load nothing).
func TestMetamorphicPrunedEqualsFull(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 4})
	combos := 0
	for li, lay := range metaLayouts() {
		seed := int64(100 + li)
		rng := rand.New(rand.NewSource(seed))
		data := make([]ev, 2000)
		for i := range data {
			data[i] = ev{
				P: geom.Pt(rng.Float64()*100, rng.Float64()*100),
				T: rng.Int63n(86400),
				N: int64(i),
			}
		}
		dir := t.TempDir()
		lay.ingest(t, ctx, dir, data, seed)

		for _, useIndex := range []bool{false, true} {
			for ws := 0; ws < 8; ws++ {
				combos++
				name := fmt.Sprintf("%s/index=%v/w%d", lay.name, useIndex, ws)
				wrng := rand.New(rand.NewSource(seed*1000 + int64(ws)))
				windows := metamorphicWindows(wrng, data, ws)

				sel := New(ctx, evC, evBox, nil, Config{Index: useIndex})
				full, fullStats, err := sel.Select(dir, windows...)
				if err != nil {
					t.Fatalf("%s: full: %v", name, err)
				}
				pruned, prunedStats, err := sel.SelectPruned(dir, windows...)
				if err != nil {
					t.Fatalf("%s: pruned: %v", name, err)
				}

				fm := encodedMultiset(full.Collect())
				pm := encodedMultiset(pruned.Collect())
				if !multisetsEqual(fm, pm) {
					t.Errorf("%s: pruned returned %d records, full scan %d — multisets differ",
						name, len(pm), len(fm))
				}
				if prunedStats.SelectedRecords != fullStats.SelectedRecords {
					t.Errorf("%s: stats disagree: pruned selected %d, full %d",
						name, prunedStats.SelectedRecords, fullStats.SelectedRecords)
				}
				if prunedStats.LoadedPartitions > fullStats.LoadedPartitions ||
					prunedStats.LoadedRecords > fullStats.LoadedRecords {
					t.Errorf("%s: pruning loaded more than the full scan: %+v vs %+v",
						name, prunedStats, fullStats)
				}
				if prunedStats.BlocksScanned+prunedStats.BlocksPruned != prunedStats.BlocksTotal {
					t.Errorf("%s: block accounting broken: %d scanned + %d pruned != %d total",
						name, prunedStats.BlocksScanned, prunedStats.BlocksPruned, prunedStats.BlocksTotal)
				}
				if prunedStats.DecompressedBytes > fullStats.DecompressedBytes {
					t.Errorf("%s: pruned decompressed %d bytes, full scan only %d",
						name, prunedStats.DecompressedBytes, fullStats.DecompressedBytes)
				}
				if ws%5 == 4 && prunedStats.LoadedPartitions != 0 {
					t.Errorf("%s: disjoint window loaded %d partitions, want 0",
						name, prunedStats.LoadedPartitions)
				}
				if ws%5 == 3 && prunedStats.SelectedRecords == 0 {
					t.Errorf("%s: degenerate window pinned on a record selected nothing", name)
				}
			}
		}
	}
	if combos < 112 {
		t.Fatalf("metamorphic suite ran %d combos, want >= 112", combos)
	}
	t.Logf("metamorphic suite: %d combos", combos)
}
