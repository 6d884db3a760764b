package stdata

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// liveDataset ingests base grid events into gt×gs partitions and appends
// deltas batches of per events each, returning the directory and its live
// metadata.
func liveDataset(tb testing.TB, base, gt, gs, deltas, per int) (string, *storage.Metadata) {
	tb.Helper()
	sch, _ := Lookup("nyc")
	dir := tb.TempDir()
	if _, err := sch.Ingest(engine.New(engine.Config{Slots: 1}), makeEvents(base), dir,
		sch.DefaultPlanner(gt, gs), selection.IngestOptions{Name: "live", SampleFrac: 0.5, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	for d := 0; d < deltas; d++ {
		recs := make([]EventRec, per)
		for i := range recs {
			k := base + d*per + i
			recs[i] = EventRec{ID: int64(k), Loc: geom.Pt(float64(k*7%10)+0.5, float64(k*3%10)+0.5),
				Time: int64(k % 100), Aux: "delta"}
		}
		if _, err := sch.Append(recs, dir, ""); err != nil {
			tb.Fatal(err)
		}
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return dir, meta
}

// cachedFetch composes each partition's live view from separately loaded
// segments, the way the serving cache does.
func cachedFetch(tb testing.TB, sch Schema, dir string, meta *storage.Metadata) func(int) (Partition, error) {
	tb.Helper()
	bases := make([]Partition, meta.NumPartitions())
	deltas := make([][]Partition, meta.NumPartitions())
	for id := range bases {
		var err error
		if bases[id], _, err = sch.LoadBase(dir, meta, id); err != nil {
			tb.Fatal(err)
		}
		for _, dm := range meta.Deltas(id) {
			p, _, err := sch.LoadDelta(dir, dm)
			if err != nil {
				tb.Fatal(err)
			}
			deltas[id] = append(deltas[id], p)
		}
	}
	return func(id int) (Partition, error) { return sch.LiveView(bases[id], deltas[id]) }
}

// TestLiveViewMatchesMergeOnRead pins the live view's order: a query over
// views composed from separately cached base and delta segments returns
// byte-for-byte what one over whole loaded partitions returns, and both
// equal a filter over storage's merge-on-read.
func TestLiveViewMatchesMergeOnRead(t *testing.T) {
	sch, _ := Lookup("nyc")
	dir, meta := liveDataset(t, 800, 2, 2, 6, 40)
	if meta.DeltaCount() < 6 {
		t.Fatalf("only %d live deltas", meta.DeltaCount())
	}
	ctx := engine.New(engine.Config{Slots: 2})
	fetch := cachedFetch(t, sch, dir, meta)
	windows := []selection.Window{
		{Space: geom.Box(0, 0, 10, 10), Time: tempo.New(0, 100)},
		{Space: geom.Box(2, 2, 6, 6), Time: tempo.New(0, 50)},
		{Space: geom.Box(4.5, 0, 9, 3.5), Time: tempo.New(20, 90)},
	}
	for wi, w := range windows {
		var want bytes.Buffer
		q := w.Box()
		for _, id := range meta.Prune(w.Space, w.Time) {
			recs, err := storage.ReadPartition(dir, meta, id, EventRecC)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Box().Intersects(q) {
					b, _ := json.Marshal(rec)
					want.Write(b)
					want.WriteByte('\n')
				}
			}
		}
		for name, f := range map[string]func(int) (Partition, error){"loaded": nil, "live view": fetch} {
			res, err := sch.ServeQuery(ctx, dir, meta, f, w, QueryOptions{Records: true})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			for _, r := range res.Records {
				got.Write(r)
				got.WriteByte('\n')
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("window %d, %s partitions: %d records differ from merge-on-read's", wi, name, len(res.Records))
			}
		}
	}

	base, _, err := sch.LoadBase(dir, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.LiveView(base, []Partition{base}); err == nil {
		t.Error("a base accepted as a delta segment")
	}
}

// BenchmarkServeQueryLive measures one served query over a pinned base
// plus 0, 8 or 32 cached deltas, composing the live view per fetch as the
// daemon does; run with -benchmem for the view's allocations.
func BenchmarkServeQueryLive(b *testing.B) {
	sch, _ := Lookup("nyc")
	w := selection.Window{Space: geom.Box(2, 2, 6, 6), Time: tempo.New(0, 50)}
	for _, n := range []int{0, 8, 32} {
		b.Run(fmt.Sprintf("deltas=%d", n), func(b *testing.B) {
			dir, meta := liveDataset(b, 4000, 1, 1, n, 64)
			fetch := cachedFetch(b, sch, dir, meta)
			ctx := engine.New(engine.Config{Slots: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sch.ServeQuery(ctx, dir, meta, fetch, w, QueryOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// randomEvents scatters n events over [0,10)² × [0,100) at float positions,
// so run boxes of neighbouring records overlap only partly.
func randomEvents(n int, seed int64) []EventRec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]EventRec, n)
	for i := range out {
		out[i] = EventRec{ID: int64(i), Loc: geom.Pt(rng.Float64()*10, rng.Float64()*10),
			Time: rng.Int63n(100), Aux: "r"}
	}
	return out
}

// randomTrajs builds n porto-shaped random walks of 1 to 6 fixes over the
// same domain.
func randomTrajs(n int, seed int64) []TrajRec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]TrajRec, n)
	for i := range out {
		x, y, ts := rng.Float64()*10, rng.Float64()*10, rng.Int63n(100)
		tr := TrajRec{ID: int64(i)}
		for j := 1 + rng.Intn(6); j > 0; j-- {
			tr.Points = append(tr.Points, geom.Pt(x, y))
			tr.Times = append(tr.Times, ts)
			x, y, ts = x+rng.NormFloat64()*0.3, y+rng.NormFloat64()*0.3, ts+1+rng.Int63n(5)
		}
		out[i] = tr
	}
	return out
}

// pinStore ingests recs with s into one partition — Z-clustered unless
// noCluster — appends each of deltas as one delta file, and returns the
// directory and its live metadata.
func pinStore[T any](tb testing.TB, s schema[T], recs []T, noCluster bool, deltas ...[]T) (string, *storage.Metadata) {
	tb.Helper()
	dir := tb.TempDir()
	if _, err := s.Ingest(engine.New(engine.Config{Slots: 1}), recs, dir, s.DefaultPlanner(1, 1),
		selection.IngestOptions{Name: "runs", SampleFrac: 1, Seed: 1, NoCluster: noCluster}); err != nil {
		tb.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := s.Append(d, dir, ""); err != nil {
			tb.Fatal(err)
		}
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if meta.NumPartitions() != 1 || len(meta.Deltas(0)) != len(deltas) {
		tb.Fatalf("%d partitions, %d deltas; want 1 and %d", meta.NumPartitions(), len(meta.Deltas(0)), len(deltas))
	}
	return dir, meta
}

// wallWindows derives query windows from recs' own boxes: each sampled
// record's box (faces equal to the record's), a point window on its low
// corner, a window touching it only at its high corner, the union of two
// records' boxes, plus an all-covering and a missing window.
func wallWindows(boxes []index.Box) []index.Box {
	inf := math.Inf(1)
	out := []index.Box{
		{Min: [3]float64{-inf, -inf, -inf}, Max: [3]float64{inf, inf, inf}},
		{Min: [3]float64{50, 50, 500}, Max: [3]float64{60, 60, 600}},
	}
	step := max(1, len(boxes)/24)
	for i := 0; i < len(boxes); i += step {
		b := boxes[i]
		touch := index.Box{Min: b.Max, Max: b.Max}
		for a := range touch.Max {
			touch.Max[a] += 1
		}
		out = append(out, b, index.Box{Min: b.Min, Max: b.Min}, touch,
			b.Union(boxes[(i*7+3)%len(boxes)]))
	}
	return out
}

// checkRunIndex compares p's matches with a brute-force BoxOf(rec).Intersects
// scan of recs, byte for byte in order, over wallWindows(recs).
func checkRunIndex[T any](t *testing.T, name string, s schema[T], p Partition, recs []T) {
	t.Helper()
	boxes := make([]index.Box, len(recs))
	for i, rec := range recs {
		boxes[i] = s.spec.BoxOf(rec)
	}
	m := p.(matcher[T])
	for wi, q := range wallWindows(boxes) {
		var want []T
		for i, rec := range recs {
			if boxes[i].Intersects(q) {
				want = append(want, rec)
			}
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(m.appendMatches(q, nil))
		if !bytes.Equal(gb, wb) {
			t.Fatalf("%s, window %d %+v: run index returned %s, linear scan %s", name, wi, q, gb, wb)
		}
	}
}

// runIndexWall pins one store's base alone against its base file's records
// and its live view against storage's merge-on-read.
func runIndexWall[T any](t *testing.T, name string, s schema[T], dir string, meta *storage.Metadata) {
	t.Helper()
	base, _, err := s.LoadBase(dir, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseRecs, _, _, err := storage.ReadBase(dir, meta, 0, s.spec.Codec, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRunIndex(t, name+" base", s, base, baseRecs)
	var deltas []Partition
	for _, dm := range meta.Deltas(0) {
		d, _, err := s.LoadDelta(dir, dm)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
	}
	live, err := s.LiveView(base, deltas)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := storage.ReadPartition(dir, meta, 0, s.spec.Codec)
	if err != nil {
		t.Fatal(err)
	}
	checkRunIndex(t, name+" live", s, live, merged)
}

// TestSegmentMatchesLinearScan is the pinned-segment wall over the run
// index (whose own wall is index.TestRunIndexMatchesLinearScan): a pinned
// segment's matches equal a brute-force scan of its records, byte for byte
// in order, across partition sizes around the run length, Z-clustered and
// unclustered stores, events and trajectories, windows on record faces and
// points, and bases with deltas attached.
func TestSegmentMatchesLinearScan(t *testing.T) {
	nyc := registry["nyc"].(schema[EventRec])
	porto := registry["porto"].(schema[TrajRec])
	checkRunIndex(t, "empty", nyc, nyc.pin(nil, nil, 0, false), []EventRec(nil))
	// 12500 records is a full partition of the benchmark's serve corpus.
	for _, n := range []int{1, 15, 16, 17, 33, 12500} {
		for _, noCluster := range []bool{false, true} {
			name := fmt.Sprintf("n=%d noCluster=%v", n, noCluster)
			seed := int64(n)
			dir, meta := pinStore(t, nyc, randomEvents(n, seed), noCluster)
			runIndexWall(t, "nyc "+name, nyc, dir, meta)
			dir, meta = pinStore(t, nyc, randomEvents(n, seed), noCluster,
				randomEvents(17, seed+1), randomEvents(1, seed+2))
			runIndexWall(t, "nyc+deltas "+name, nyc, dir, meta)
			dir, meta = pinStore(t, porto, randomTrajs(n, seed), noCluster, randomTrajs(33, seed+1))
			runIndexWall(t, "porto+deltas "+name, porto, dir, meta)
		}
	}
}

// benchStore is one store BenchmarkLoadBase and BenchmarkBaseProbe run
// over, with the probe loop typed for its schema.
type benchStore struct {
	name  string
	sch   Schema
	dir   string
	meta  *storage.Metadata
	probe func(b *testing.B, p Partition, windows []index.Box)
}

// benchStores are one full serve-corpus partition each of clustered events,
// unclustered events and trajectories.
func benchStores(b *testing.B) []benchStore {
	nyc := registry["nyc"].(schema[EventRec])
	porto := registry["porto"].(schema[TrajRec])
	ev, evMeta := pinStore(b, nyc, randomEvents(12500, 1), false)
	raw, rawMeta := pinStore(b, nyc, randomEvents(12500, 1), true)
	tr, trMeta := pinStore(b, porto, randomTrajs(12500, 1), false)
	return []benchStore{
		{"events", nyc, ev, evMeta, probeLoop[EventRec]},
		{"events-nocluster", nyc, raw, rawMeta, probeLoop[EventRec]},
		{"trajs", porto, tr, trMeta, probeLoop[TrajRec]},
	}
}

// probeLoop searches p b.N times, cycling over windows.
func probeLoop[T any](b *testing.B, p Partition, windows []index.Box) {
	m := p.(matcher[T])
	out := make([]T, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = m.appendMatches(windows[i%len(windows)], out[:0])
	}
}

// BenchmarkLoadBase measures pinning one base file: read, decode and index
// build, the cost a serving-cache miss pays. Run with -benchmem.
func BenchmarkLoadBase(b *testing.B) {
	for _, st := range benchStores(b) {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := st.sch.LoadBase(st.dir, st.meta, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaseProbe measures one window search of a pinned base, cycling
// over 64 seeded windows 15% of the domain wide on each axis (the
// benchmark spine's window fraction).
func BenchmarkBaseProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	windows := make([]index.Box, 64)
	for i := range windows {
		x, y, ts := rng.Float64()*8.5, rng.Float64()*8.5, rng.Float64()*85
		windows[i] = index.Box{Min: [3]float64{x, y, ts}, Max: [3]float64{x + 1.5, y + 1.5, ts + 15}}
	}
	for _, st := range benchStores(b) {
		b.Run(st.name, func(b *testing.B) {
			p, _, err := st.sch.LoadBase(st.dir, st.meta, 0)
			if err != nil {
				b.Fatal(err)
			}
			st.probe(b, p, windows)
		})
	}
}
