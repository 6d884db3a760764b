package stdata

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
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
			p, _, err := sch.LoadDelta(dir, meta, dm)
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
