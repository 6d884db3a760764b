package selection

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/index"
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
	out := encodedSeq(evC, evs)
	sort.Strings(out)
	return out
}

// encodedSeq encodes every record with c, in order.
func encodedSeq[T any](c codec.Codec[T], recs []T) []string {
	out := make([]string, len(recs))
	for i, v := range recs {
		w := codec.NewWriter(32)
		c.Enc(w, v)
		out[i] = string(w.Bytes())
	}
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
type metaLayout[T any] struct {
	name   string
	ingest func(t *testing.T, ctx *engine.Context, dir string, data []T, seed int64)
}

// layoutSchema is the codec and box function a layout ingests records with.
type layoutSchema[T any] struct {
	c     codec.Codec[T]
	boxOf func(T) index.Box
}

func plannerLayout[T any](s layoutSchema[T], name string, p partition.Planner, mod func(*IngestOptions)) metaLayout[T] {
	return metaLayout[T]{name: name, ingest: func(t *testing.T, ctx *engine.Context, dir string, data []T, seed int64) {
		t.Helper()
		r := engine.Parallelize(ctx, data, 8)
		opts := IngestOptions{Name: name, SampleFrac: 0.3, Seed: seed}
		if mod != nil {
			mod(&opts)
		}
		if _, err := Ingest(r, dir, s.c, s.boxOf, p, opts); err != nil {
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
func metaLayouts() []metaLayout[ev] { return layoutsOf(layoutSchema[ev]{evC, evBox}) }

// layoutsOf lands records of schema s in each of the suite's layouts.
func layoutsOf[T any](s layoutSchema[T]) []metaLayout[T] {
	return []metaLayout[T]{
		plannerLayout(s, "tstr4x4", partition.TSTR{GT: 4, GS: 4}, nil),
		plannerLayout(s, "tstr2x8", partition.TSTR{GT: 2, GS: 8}, nil),
		plannerLayout(s, "str2d9", partition.STR2D{N: 9}, nil),
		plannerLayout(s, "tstr4x4-b16", partition.TSTR{GT: 4, GS: 4}, func(o *IngestOptions) {
			o.BlockRecords = 16
		}),
		plannerLayout(s, "str2d9-b1", partition.STR2D{N: 9}, func(o *IngestOptions) {
			o.BlockRecords = 1
		}),
		plannerLayout(s, "tstr4x4-nocluster", partition.TSTR{GT: 4, GS: 4}, func(o *IngestOptions) {
			o.BlockRecords = 32
			o.NoCluster = true
		}),
		{name: "hash6", ingest: func(t *testing.T, ctx *engine.Context, dir string, data []T, seed int64) {
			t.Helper()
			r := engine.HashPartitionBy(engine.Parallelize(ctx, data, 8), s.c, 6)
			if _, err := IngestUnpartitioned(r, dir, s.c, s.boxOf,
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

// trj is a trajectory-shaped extended record, laid out in columns the way
// stdata.TrajRecC lays out trajectories: the first sample on the shared
// columns, the rest in the payload as raw coordinates and time deltas,
// and an Extent that walks the payload without building the record. Its
// box is one only the whole payload gives, so the storage reader prunes it
// through Extent rather than the point predicate.
type trj struct {
	N   int64
	Pts []geom.Point
	Ts  []int64
}

func trjBox(v trj) index.Box {
	mbr, d := geom.EmptyMBR(), tempo.Empty()
	for i, p := range v.Pts {
		mbr, d = mbr.ExpandToPoint(p), d.ExpandTo(v.Ts[i])
	}
	return index.Box3(mbr, d)
}

// trjCount reads the sample count off a payload span, bounding it by the
// bytes left (17 per sample past the first).
func trjCount(pay *codec.Reader) int {
	n := int(pay.Uvarint())
	if n < 0 || (n > 1 && (n-1) > pay.Remaining()/17) {
		panic(codec.ErrCorrupt{})
	}
	return n
}

var trjC = codec.Codec[trj]{
	Enc: func(w *codec.Writer, v trj) {
		w.PutVarint(v.N)
		w.PutUvarint(uint64(len(v.Pts)))
		for i, p := range v.Pts {
			codec.PointC.Enc(w, p)
			w.PutVarint(v.Ts[i])
		}
	},
	Dec: func(r *codec.Reader) trj {
		v := trj{N: r.Varint()}
		for n := int(r.Uvarint()); n > 0; n-- {
			v.Pts = append(v.Pts, codec.PointC.Dec(r))
			v.Ts = append(v.Ts, r.Varint())
		}
		return v
	},
	Col: &codec.Columnar[trj]{
		Split: func(v trj, b *codec.ColBlock) {
			b.IDs = append(b.IDs, v.N)
			b.Lon = append(b.Lon, v.Pts[0].X)
			b.Lat = append(b.Lat, v.Pts[0].Y)
			b.T = append(b.T, v.Ts[0])
			b.Pay.PutUvarint(uint64(len(v.Pts)))
			for i := 1; i < len(v.Pts); i++ {
				b.Pay.PutFloat64(v.Pts[i].X)
				b.Pay.PutFloat64(v.Pts[i].Y)
				b.Pay.PutVarint(v.Ts[i] - v.Ts[i-1])
			}
		},
		Join: func(b *codec.ColBlock, i int, pay *codec.Reader) trj {
			n := trjCount(pay)
			v := trj{N: b.IDs[i], Pts: []geom.Point{geom.Pt(b.Lon[i], b.Lat[i])}, Ts: []int64{b.T[i]}}
			for j := 1; j < n; j++ {
				v.Pts = append(v.Pts, geom.Pt(pay.Float64(), pay.Float64()))
				v.Ts = append(v.Ts, v.Ts[j-1]+pay.Varint())
			}
			return v
		},
		Extent: func(b *codec.ColBlock, i int, pay *codec.Reader) index.Box {
			n := trjCount(pay)
			mbr := geom.EmptyMBR().ExpandToPoint(geom.Pt(b.Lon[i], b.Lat[i]))
			t := b.T[i]
			d := tempo.Instant(t)
			for j := 1; j < n; j++ {
				mbr = mbr.ExpandToPoint(geom.Pt(pay.Float64(), pay.Float64()))
				t += pay.Varint()
				d = d.ExpandTo(t)
			}
			return index.Box3(mbr, d)
		},
	},
}

// trjSampleIn is the exact refine: some sample of v lies in the window, a
// stricter test than its box meeting the window.
func trjSampleIn(v trj, space geom.MBR, dur tempo.Duration) bool {
	for i, p := range v.Pts {
		if space.ContainsPoint(p) && dur.Contains(v.Ts[i]) {
			return true
		}
	}
	return false
}

// trjCorpus draws n random walks of 1 to 8 samples over a 100×100 area and
// a day.
func trjCorpus(rng *rand.Rand, n int) []trj {
	data := make([]trj, n)
	for i := range data {
		x, y, ts := rng.Float64()*95, rng.Float64()*95, rng.Int63n(80000)
		v := trj{N: int64(i)}
		for j := 1 + rng.Intn(8); j > 0; j-- {
			v.Pts = append(v.Pts, geom.Pt(x, y))
			v.Ts = append(v.Ts, ts)
			x, y, ts = x+rng.Float64()*2-0.5, y+rng.Float64()*2-0.5, ts+1+rng.Int63n(600)
		}
		data[i] = v
	}
	return data
}

// trjWindows draws one window set of the kinds metamorphicWindows draws,
// on trajectory boxes: random ranges, three-window unions, a window whose
// faces are exactly a trajectory's box faces, a degenerate window pinned
// on one sample, and a window disjoint from the corpus.
func trjWindows(rng *rand.Rand, data []trj, kind int) []Window {
	switch kind % 5 {
	case 2:
		b := trjBox(data[rng.Intn(len(data))])
		return []Window{{Space: b.Spatial(), Time: b.Temporal()}}
	case 3:
		v := data[rng.Intn(len(data))]
		j := rng.Intn(len(v.Pts))
		p := v.Pts[j]
		return []Window{{Space: geom.Box(p.X, p.Y, p.X, p.Y), Time: tempo.Instant(v.Ts[j])}}
	default:
		// Random, union and disjoint windows do not look at the records.
		return metamorphicWindows(rng, nil, kind)
	}
}

// TestMetamorphicTrajectoriesPrunedEqualsFull is the selection wall for
// extended records: a trajectory-shaped corpus under an exact refine,
// through the same 7 layouts × 2 index modes × 8 seeded window sets. For
// each, SelectPruned (where the storage reader drops records by their
// Columnar.Extent) returns byte for byte the multiset the full-scan Select
// returns, and the run-index filter returns, record for record in order,
// what the linear scan returns on both paths. Across the suite the extent
// test must prune records.
func TestMetamorphicTrajectoriesPrunedEqualsFull(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 4})
	combos := 0
	var recordsPruned int64
	for li, lay := range layoutsOf(layoutSchema[trj]{trjC, trjBox}) {
		seed := int64(200 + li)
		rng := rand.New(rand.NewSource(seed))
		data := trjCorpus(rng, 1200)
		dir := t.TempDir()
		lay.ingest(t, ctx, dir, data, seed)

		for ws := 0; ws < 8; ws++ {
			wrng := rand.New(rand.NewSource(seed*1000 + int64(ws)))
			windows := trjWindows(wrng, data, ws)
			var seqs [2][2][]string // [index][pruned]
			for ii, useIndex := range []bool{false, true} {
				combos++
				name := fmt.Sprintf("%s/index=%v/w%d", lay.name, useIndex, ws)
				sel := New(ctx, trjC, trjBox, trjSampleIn, Config{Index: useIndex})
				full, fullStats, err := sel.Select(dir, windows...)
				if err != nil {
					t.Fatalf("%s: full: %v", name, err)
				}
				pruned, prunedStats, err := sel.SelectPruned(dir, windows...)
				if err != nil {
					t.Fatalf("%s: pruned: %v", name, err)
				}
				seqs[ii][0] = encodedSeq(trjC, full.Collect())
				seqs[ii][1] = encodedSeq(trjC, pruned.Collect())
				fm := append([]string(nil), seqs[ii][0]...)
				pm := append([]string(nil), seqs[ii][1]...)
				sort.Strings(fm)
				sort.Strings(pm)
				if !multisetsEqual(fm, pm) {
					t.Errorf("%s: pruned returned %d records, full scan %d — multisets differ",
						name, len(pm), len(fm))
				}
				if prunedStats.SelectedRecords != fullStats.SelectedRecords {
					t.Errorf("%s: stats disagree: pruned selected %d, full %d",
						name, prunedStats.SelectedRecords, fullStats.SelectedRecords)
				}
				if fullStats.RecordsPruned != 0 {
					t.Errorf("%s: the full scan pruned %d records", name, fullStats.RecordsPruned)
				}
				if prunedStats.DecompressedBytes > fullStats.DecompressedBytes {
					t.Errorf("%s: pruned decoded %d bytes, full scan only %d",
						name, prunedStats.DecompressedBytes, fullStats.DecompressedBytes)
				}
				if ws%5 == 3 && prunedStats.SelectedRecords == 0 {
					t.Errorf("%s: degenerate window pinned on a sample selected nothing", name)
				}
				recordsPruned += prunedStats.RecordsPruned
			}
			for pi, path := range []string{"Select", "SelectPruned"} {
				if !multisetsEqual(seqs[0][pi], seqs[1][pi]) {
					t.Errorf("%s/w%d: %s with the run index returned %d records, linear scan %d — sequences differ",
						lay.name, ws, path, len(seqs[1][pi]), len(seqs[0][pi]))
				}
			}
		}
	}
	if combos < 112 {
		t.Fatalf("trajectory suite ran %d combos, want >= 112", combos)
	}
	if recordsPruned == 0 {
		t.Fatal("the storage reader's extent test pruned no trajectory across the suite")
	}
	t.Logf("trajectory suite: %d combos, %d records pruned by extent", combos, recordsPruned)
}
