package stdata

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// The column ≡ row wall: a pinned segment holds its file's columns, and
// the records it rebuilds from them must be the records the storage row
// reader decodes from the same file, in the same order, with the boxes
// the storage reader hands the segment equal to the schema's BoxOf of
// each, bit for bit —
// for every registered schema, in its native column layout and in the
// generic row layout, in base and delta files.

// checkColumnsMatchRows writes recs through c as one base partition of
// 8-record blocks and appends each of deltas as a delta file, then
// compares the records joined from every LoadBase and LoadDelta segment
// with storage.ReadPartition's rows, and the boxes ReadBase and ReadDelta
// return for pinning with BoxOf of those rows.
func checkColumnsMatchRows[T any](t *testing.T, s schema[T], layout string, c codec.Codec[T], recs []T, deltas ...[]T) {
	t.Helper()
	name := s.spec.Name + " " + layout
	noBox := func(T) index.Box { return index.Box{} }
	dir := t.TempDir()
	if _, err := storage.Write(dir, c, [][]T{recs}, noBox,
		storage.WriteOptions{Name: s.spec.Name, BlockRecords: 8}); err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := storage.AppendDelta(dir, c, d, noBox, storage.AppendOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Deltas(0)) != len(deltas) {
		t.Fatalf("%s: %d delta files, want %d", name, len(meta.Deltas(0)), len(deltas))
	}
	want, err := storage.ReadPartition(dir, meta, 0, s.spec.Codec)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := s.LoadBase(dir, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, boxes, _, err := storage.ReadBase(dir, meta, 0, s.spec.Codec, s.spec.BoxOf)
	if err != nil {
		t.Fatal(err)
	}
	segs := []*segment[T]{base.(*segment[T])}
	for _, dm := range meta.Deltas(0) {
		d, _, err := s.LoadDelta(dir, dm)
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, d.(*segment[T]))
		_, dboxes, _, err := storage.ReadDelta(dir, dm, s.spec.Codec, s.spec.BoxOf)
		if err != nil {
			t.Fatal(err)
		}
		boxes = append(boxes, dboxes...)
	}
	var got []T
	for _, g := range segs {
		got = append(got, segRows(t, s, g)...)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: segments join %d records, the row reader reads %d", name, len(got), len(want))
	}
	for i := range want {
		// By their encodings, so NaN fields compare by their bits.
		if !bytes.Equal(codec.Marshal(s.spec.Codec, got[i]), codec.Marshal(s.spec.Codec, want[i])) {
			t.Fatalf("%s: record %d joined as %+v, the row reader reads %+v", name, i, got[i], want[i])
		}
	}
	checkBoxes(t, name, want, boxes, s.spec.BoxOf)
}

// TestSegmentColumnsMatchRows is the wall over every registered schema and
// both layouts, on the pinned-box wall's edge records (NaN, ±Inf, -0 and
// times past 2^53) split into a base and two deltas.
func TestSegmentColumnsMatchRows(t *testing.T) {
	if got, want := fmt.Sprint(SchemaNames()), "[air nyc osm porto]"; got != want {
		t.Fatalf("registered schemas %s, the wall covers %s", got, want)
	}
	columnRowWall(t, "nyc", pinEdgeRecs(150, func(i int, p geom.Point, ts int64) EventRec {
		return EventRec{ID: int64(i), Loc: p, Time: ts, Aux: fmt.Sprint("kind-", i%3)}
	}))
	columnRowWall(t, "air", pinEdgeRecs(150, func(i int, p geom.Point, ts int64) AirRec {
		return AirRec{StationID: int64(i % 7), Loc: p, Time: ts, Indices: [6]float64{float64(i), math.NaN()}}
	}))
	columnRowWall(t, "osm", pinEdgeRecs(150, func(i int, p geom.Point, _ int64) POIRec {
		return POIRec{ID: int64(i), Loc: p, Type: fmt.Sprint("type-", i%40)}
	}))
	columnRowWall(t, "porto", extentTrajs(35, 150))
}

// columnRowWall runs checkColumnsMatchRows over both layouts, with the
// first 100 records as the base and the rest as two deltas.
func columnRowWall[T any](t *testing.T, name string, recs []T) {
	s := registry[name].(schema[T])
	for layout, c := range map[string]codec.Codec[T]{
		"native": s.spec.Codec,
		"rows":   {Enc: s.spec.Codec.Enc, Dec: s.spec.Codec.Dec},
	} {
		checkColumnsMatchRows(t, s, layout, c, recs[:100], recs[100:130], recs[130:])
	}
}

// TestSegmentChargeMatchesSlices pins what a point segment is charged: its
// run boxes — 48 bytes per run of 16 records, no box per record — plus the
// columns and dictionary it holds before the switch; after it, when it
// holds no columns, the 24 bytes a record of coordinates its run index
// still reads, the arena and 4 bytes of offset per record. No byte is
// counted twice.
func TestSegmentChargeMatchesSlices(t *testing.T) {
	nyc := registry["nyc"].(schema[EventRec])
	dir, meta := pinStore(t, nyc, randomEvents(1000, 1), false)
	p, _, err := nyc.LoadBase(dir, meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := p.(*segment[EventRec])
	n := int64(g.n)
	runBoxes := 48 * ((n + 15) / 16)
	cols := g.state.Load().cols
	// nyc keeps every field in the shared columns: 8 bytes each of id,
	// lon, lat and t, and a 4-byte dictionary index a record, with no
	// payload offsets.
	colBytes := 36 * n
	for _, s := range cols.Dict {
		colBytes += 16 + int64(len(s))
	}
	if len(cols.Dict) != 1 || cols.PaySpan(0) != nil {
		t.Fatalf("columns hold a dictionary of %q and a %d-byte payload span", cols.Dict, len(cols.PaySpan(0)))
	}
	if got, want := g.SizeBytes(), runBoxes+colBytes; got != want {
		t.Fatalf("segment of %d records charged %d bytes before the switch, want %d (%d run boxes, %d columns)",
			n, got, want, runBoxes, colBytes)
	}
	all := arenaQuery{allWindow, QueryOptions{Records: true}}
	for range 2 {
		serveJSON(t, nyc, dir, meta, func(int) (Partition, error) { return g, nil }, all)
	}
	st := g.state.Load()
	if !st.switched() || st.cols != nil {
		t.Fatalf("segment has not switched (served %d of %d)", g.served.Load(), n)
	}
	if got, want := g.SizeBytes(), runBoxes+24*n+int64(len(st.arena))+4*n; got != want {
		t.Fatalf("switched segment charged %d bytes, want %d (%d run boxes, %d coordinates, %d arena, %d offsets)",
			got, want, runBoxes, 24*n, len(st.arena), len(st.off))
	}
}

// Ceilings for TestServeQueryEncodeAllocs's query over segments short of
// break-even, measured at 38 allocations and 194 KiB for its 1.6k
// records: the engine stage and its tasks, the select span, each
// partition's hit indices, the reply's one payload reader, and the encoded
// records' buffer, offsets and slice headers. Every hit is joined from the
// columns into a record on the stack and allocates nothing. Segments that
// held their rows instead of columns read 37 allocations and 194 KiB.
const (
	encodeQueryAllocCeiling = 42
	encodeQueryByteCeiling  = 208 << 10
)

// TestServeQueryEncodeAllocs pins the allocations of a warm records query
// that encodes its hits from pinned columns: a gridded nyc store of four
// partitions whose segments have their served counts reset before each
// query, so none reaches break-even and switches to its arena.
func TestServeQueryEncodeAllocs(t *testing.T) {
	nyc := registry["nyc"].(schema[EventRec])
	dir, meta := arenaStore(t, nyc, gridEvents(20000, 3))
	ps := pinAll(t, nyc, dir, meta)
	w := selection.Window{Space: geom.Box(3, 3, 7, 7), Time: tempo.New(25, 75)}
	ctx := engine.New(engine.Config{Slots: 1})
	query := func() QueryResult {
		for _, g := range ps.bases {
			g.served.Store(0)
		}
		res, err := nyc.ServeQuery(ctx, dir, meta, ps.baseOnly, w, QueryOptions{Records: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := query()
	if len(res.Records) < 500 || res.Stats.LoadedPartitions < 2 {
		t.Fatalf("window selects %d records from %d partitions; want hundreds from several",
			len(res.Records), res.Stats.LoadedPartitions)
	}
	allocs := testing.AllocsPerRun(20, func() { query() })
	for id, g := range ps.bases {
		if g.state.Load().switched() {
			t.Fatalf("partition %d switched to its arena", id)
		}
	}
	if allocs > encodeQueryAllocCeiling {
		t.Errorf("encoding ServeQuery of %d records: %.0f allocs per query, ceiling %d",
			len(res.Records), allocs, encodeQueryAllocCeiling)
	}
	if raceBuild {
		return // the race build makes slices.Grow allocate a temporary as large as the growth
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > encodeQueryByteCeiling {
		t.Errorf("encoding ServeQuery of %d records: %d bytes per query, ceiling %d",
			len(res.Records), b, encodeQueryByteCeiling)
	}
}
