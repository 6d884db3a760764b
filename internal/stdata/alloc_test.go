package stdata_test

import (
	"runtime"
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/tempo"
)

// Ceilings for one warm ServeQuery over pinned partitions that returns
// its records, measured at 37 allocations and 192 KiB. The allocations are
// the engine stage and its tasks, the select span, each partition's match
// slice — one, sized by the run index's bound — and the encoded records'
// buffer, offsets and slice headers; none is per record. Growing each
// match slice from 16 by doubling reads 55 allocations. The bytes are
// mostly the records' JSON and their slice headers. Holding each match as
// a copy of its 48-byte row rather than a reference into the pinned
// segment reads 342 KiB.
const (
	serveQueryAllocCeiling = 40
	serveQueryByteCeiling  = 208 << 10
)

// TestServeQueryAllocs pins the allocations of a warm served query over a
// pinned datagen.NYC store, with a window selecting about 1.3k records
// from four partitions.
func TestServeQueryAllocs(t *testing.T) {
	sch, _ := stdata.Lookup("nyc")
	ctx := engine.New(engine.Config{Slots: 1})
	dir := t.TempDir()
	meta, err := sch.Ingest(ctx, datagen.NYC(20_000, 3), dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pinned := make([]stdata.Partition, meta.NumPartitions())
	for id := range pinned {
		if pinned[id], _, err = sch.LoadBase(dir, meta, id); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(id int) (stdata.Partition, error) { return pinned[id], nil }
	ext, yr := datagen.NYCExtent, datagen.Year2013
	w := selection.Window{
		Space: geom.Box(ext.MinX+ext.Width()*0.4, ext.MinY+ext.Height()*0.4, ext.MinX+ext.Width()*0.6, ext.MinY+ext.Height()*0.6),
		Time:  tempo.New(yr.Start, yr.Start+(yr.End-yr.Start)/2),
	}
	opts := stdata.QueryOptions{Records: true}
	res, err := sch.ServeQuery(ctx, dir, meta, fetch, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 200 || res.Stats.LoadedPartitions < 2 {
		t.Fatalf("window selects %d records from %d partitions; want a few hundred from several",
			len(res.Records), res.Stats.LoadedPartitions)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sch.ServeQuery(ctx, dir, meta, fetch, w, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > serveQueryAllocCeiling {
		t.Errorf("warm ServeQuery of %d records: %.0f allocs per query, ceiling %d",
			len(res.Records), allocs, serveQueryAllocCeiling)
	}
	if raceEnabled {
		return // the race build makes slices.Grow allocate a temporary as large as the growth
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := sch.ServeQuery(ctx, dir, meta, fetch, w, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > serveQueryByteCeiling {
		t.Errorf("warm ServeQuery of %d records: %d bytes per query, ceiling %d",
			len(res.Records), b, serveQueryByteCeiling)
	}
}

// Ceilings for the same warm query once every partition it touches has
// switched to its reply arena, measured at 30 allocations and 52 KiB:
// the engine stage and its tasks, the select span, each partition's hit
// indices (4 bytes a hit) and the records' slice headers (24 bytes a
// record), which point into the arenas. Nothing is encoded and no record
// byte is copied.
const (
	arenaQueryAllocCeiling = 32
	arenaQueryByteCeiling  = 56 << 10
)

// TestServeQueryArenaAllocs pins the allocations of TestServeQueryAllocs's
// query after the break-even switch.
func TestServeQueryArenaAllocs(t *testing.T) {
	sch, _ := stdata.Lookup("nyc")
	ctx := engine.New(engine.Config{Slots: 1})
	dir := t.TempDir()
	meta, err := sch.Ingest(ctx, datagen.NYC(20_000, 3), dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pinned := make([]stdata.Partition, meta.NumPartitions())
	for id := range pinned {
		if pinned[id], _, err = sch.LoadBase(dir, meta, id); err != nil {
			t.Fatal(err)
		}
	}
	fetch := func(id int) (stdata.Partition, error) { return pinned[id], nil }
	ext, yr := datagen.NYCExtent, datagen.Year2013
	w := selection.Window{
		Space: geom.Box(ext.MinX+ext.Width()*0.4, ext.MinY+ext.Height()*0.4, ext.MinX+ext.Width()*0.6, ext.MinY+ext.Height()*0.6),
		Time:  tempo.New(yr.Start, yr.Start+(yr.End-yr.Start)/2),
	}
	opts := stdata.QueryOptions{Records: true}
	query := func() stdata.QueryResult {
		res, err := sch.ServeQuery(ctx, dir, meta, fetch, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Each query encodes about an eighth of each partition it touches;
	// the query after the one that reaches break-even switches them.
	for i := 0; i < 16; i++ {
		query()
	}
	res := query()
	for _, id := range meta.Prune(w.Space, w.Time) {
		if pinned[id].ArenaBytes() == 0 {
			t.Fatalf("partition %d has not switched after 17 queries", id)
		}
	}
	allocs := testing.AllocsPerRun(20, func() { query() })
	if allocs > arenaQueryAllocCeiling {
		t.Errorf("switched ServeQuery of %d records: %.0f allocs per query, ceiling %d",
			len(res.Records), allocs, arenaQueryAllocCeiling)
	}
	if raceEnabled {
		return
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > arenaQueryByteCeiling {
		t.Errorf("switched ServeQuery of %d records: %d bytes per query, ceiling %d",
			len(res.Records), b, arenaQueryByteCeiling)
	}
}
