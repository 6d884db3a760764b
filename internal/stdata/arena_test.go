package stdata

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// The arena wall: a segment past break-even serves its records from its
// reply arena, and every reply — flat or per partition, at any limit — is
// byte for byte the reply of segments that encode their rows, for every
// registered schema.

// randomAirs and randomPOIs scatter n air readings and POIs over the
// domain randomEvents uses.
func randomAirs(n int, seed int64) []AirRec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]AirRec, n)
	for i := range out {
		out[i] = AirRec{StationID: int64(i % 13), Loc: geom.Pt(rng.Float64()*10, rng.Float64()*10),
			Time: rng.Int63n(100)}
		for j := range out[i].Indices {
			out[i].Indices[j] = rng.Float64() * 300
		}
	}
	return out
}

func randomPOIs(n int, seed int64) []POIRec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]POIRec, n)
	for i := range out {
		out[i] = POIRec{ID: int64(i), Loc: geom.Pt(rng.Float64()*10, rng.Float64()*10),
			Type: fmt.Sprint("type-", i%5)}
	}
	return out
}

// arenaStore ingests recs with s into four partitions, appends each of
// deltas as one delta file, and returns the directory and its metadata.
func arenaStore[T any](t *testing.T, s schema[T], recs []T, deltas ...[]T) (string, *storage.Metadata) {
	t.Helper()
	dir := t.TempDir()
	if _, err := s.Ingest(engine.New(engine.Config{Slots: 1}), recs, dir, s.DefaultPlanner(2, 2),
		selection.IngestOptions{Name: s.spec.Name, SampleFrac: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if _, err := s.Append(d, dir, ""); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, meta
}

// pinnedStore is every segment of a store, pinned once.
type pinnedStore[T any] struct {
	bases  []*segment[T]
	deltas [][]*segment[T]
}

func pinAll[T any](t *testing.T, s schema[T], dir string, meta *storage.Metadata) *pinnedStore[T] {
	t.Helper()
	ps := &pinnedStore[T]{bases: make([]*segment[T], meta.NumPartitions()),
		deltas: make([][]*segment[T], meta.NumPartitions())}
	for id := range ps.bases {
		p, _, err := s.LoadBase(dir, meta, id)
		if err != nil {
			t.Fatal(err)
		}
		ps.bases[id] = p.(*segment[T])
		for _, dm := range meta.Deltas(id) {
			d, _, err := s.LoadDelta(dir, dm)
			if err != nil {
				t.Fatal(err)
			}
			ps.deltas[id] = append(ps.deltas[id], d.(*segment[T]))
		}
	}
	return ps
}

// live composes each partition's live view the way the serving cache does.
func (ps *pinnedStore[T]) live(s schema[T]) func(int) (Partition, error) {
	return func(id int) (Partition, error) {
		deltas := make([]Partition, len(ps.deltas[id]))
		for i, d := range ps.deltas[id] {
			deltas[i] = d
		}
		return s.LiveView(ps.bases[id], deltas)
	}
}

// baseOnly serves each partition's base alone.
func (ps *pinnedStore[T]) baseOnly(id int) (Partition, error) { return ps.bases[id], nil }

func (ps *pinnedStore[T]) segments() []*segment[T] {
	out := append([]*segment[T](nil), ps.bases...)
	for _, ds := range ps.deltas {
		out = append(out, ds...)
	}
	return out
}

// arenaQuery is one served query of the wall.
type arenaQuery struct {
	w    selection.Window
	opts QueryOptions
}

func (q arenaQuery) String() string {
	return fmt.Sprintf("window %v %v, records %v, limit %d, per-partition %v",
		q.w.Space, q.w.Time, q.opts.Records, q.opts.Limit, q.opts.PerPartition)
}

// allWindow covers every record of the wall's stores.
var allWindow = selection.Window{Space: geom.Box(-1, -1, 11, 11), Time: tempo.New(-1, 1000)}

// serveJSON runs q through fetch (nil: every partition loaded afresh) and
// returns its whole result as JSON.
func serveJSON[T any](t testing.TB, s schema[T], dir string, meta *storage.Metadata,
	fetch func(int) (Partition, error), q arenaQuery) []byte {
	t.Helper()
	res, err := s.ServeQuery(engine.New(engine.Config{Slots: 2}), dir, meta, fetch, q.w, q.opts)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// arenaQueries are the wall's records queries: the whole extent, a middle
// window and a narrow one, each flat and per partition, at limits 0, 1 and
// half the window's count.
func arenaQueries[T any](t *testing.T, s schema[T], dir string, meta *storage.Metadata) []arenaQuery {
	t.Helper()
	var out []arenaQuery
	for _, w := range []selection.Window{
		allWindow,
		{Space: geom.Box(2, 2, 7, 8), Time: tempo.New(10, 80)},
		{Space: geom.Box(4, 4, 5.5, 5), Time: tempo.New(0, 100)},
	} {
		res, err := s.ServeQuery(engine.New(engine.Config{Slots: 1}), dir, meta, nil, w, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 1, max(2, int(res.Stats.SelectedRecords)/2)} {
			for _, per := range []bool{false, true} {
				out = append(out, arenaQuery{w, QueryOptions{Records: true, Limit: limit, PerPartition: per}})
			}
		}
	}
	return out
}

// checkArena fails unless g has switched and its arena is AppendJSON of
// each of rows, back to back, with off at each record's end.
func checkArena[T any](t *testing.T, name string, s schema[T], g *segment[T], rows []T) {
	t.Helper()
	st := g.state.Load()
	if !st.switched() || st.cols != nil {
		t.Fatalf("%s: segment of %d records has not switched (served %d)", name, g.n, g.served.Load())
	}
	var want []byte
	for i, rec := range rows {
		var err error
		if want, err = s.spec.AppendJSON(want, rec); err != nil {
			t.Fatal(err)
		}
		if int(st.off[i+1]) != len(want) {
			t.Fatalf("%s: record %d ends at %d, want %d", name, i, st.off[i+1], len(want))
		}
	}
	if len(st.off) != len(rows)+1 || st.off[0] != 0 || !bytes.Equal(st.arena, want) {
		t.Fatalf("%s: arena of %d bytes, %d offsets; want AppendJSON of %d rows, %d bytes",
			name, len(st.arena), len(st.off), len(rows), len(want))
	}
	if got := g.SizeBytes(); got != g.bytes+int64(len(want))+4*int64(len(rows)) {
		t.Fatalf("%s: switched segment charges %d bytes, pinned at %d with a %d-byte arena", name, got, g.bytes, len(want))
	}
}

// arenaWall drives every segment of a store of recs (plus deltas) past
// break-even and checks the arenas and that every reply of the wall's
// queries equals the reply over freshly loaded partitions, before and
// after the switch.
func arenaWall[T any](t *testing.T, name string, recs []T, deltas ...[]T) {
	t.Helper()
	s := registry[name].(schema[T])
	dir, meta := arenaStore(t, s, recs, deltas...)
	queries := arenaQueries(t, s, dir, meta)
	fresh := make([][]byte, len(queries))
	for i, q := range queries {
		fresh[i] = serveJSON(t, s, dir, meta, nil, q)
	}
	ps := pinAll(t, s, dir, meta)
	rows := map[*segment[T]][]T{}
	for _, g := range ps.segments() {
		rows[g] = segRows(t, s, g)
	}
	live := ps.live(s)
	check := func(stage string) {
		t.Helper()
		for i, q := range queries {
			if got := serveJSON(t, s, dir, meta, live, q); !bytes.Equal(got, fresh[i]) {
				t.Fatalf("%s %s, %s: reply differs from a fresh segment's:\n got %.300s\nwant %.300s",
					name, stage, q, got, fresh[i])
			}
		}
	}
	check("while the segments switch")
	// One whole-extent records query encodes every record once; the next
	// one finds each segment at break-even and switches it.
	all := arenaQuery{allWindow, QueryOptions{Records: true}}
	for range 2 {
		serveJSON(t, s, dir, meta, live, all)
	}
	for i, g := range ps.segments() {
		checkArena(t, fmt.Sprintf("%s segment %d", name, i), s, g, rows[g])
	}
	check("after the switch")
}

// TestArenaMatchesEncode is the arena wall over every registered schema.
func TestArenaMatchesEncode(t *testing.T) {
	if got, want := fmt.Sprint(SchemaNames()), "[air nyc osm porto]"; got != want {
		t.Fatalf("registered schemas %s, the wall covers %s", got, want)
	}
	arenaWall(t, "nyc", randomEvents(600, 1), randomEvents(40, 2), randomEvents(17, 3))
	arenaWall(t, "porto", randomTrajs(400, 1), randomTrajs(33, 2))
	arenaWall(t, "air", randomAirs(500, 1), randomAirs(21, 2))
	arenaWall(t, "osm", randomPOIs(500, 1), randomPOIs(19, 2))
}

// TestArenaBaseWithEncodingDeltas pins the merge order of a live view
// whose base has switched while its deltas still encode their rows.
func TestArenaBaseWithEncodingDeltas(t *testing.T) {
	s := registry["nyc"].(schema[EventRec])
	dir, meta := arenaStore(t, s, randomEvents(600, 1), randomEvents(40, 2), randomEvents(17, 3))
	queries := arenaQueries(t, s, dir, meta)
	ps := pinAll(t, s, dir, meta)
	all := arenaQuery{allWindow, QueryOptions{Records: true}}
	for range 2 {
		serveJSON(t, s, dir, meta, ps.baseOnly, all)
	}
	for id := range ps.bases {
		if !ps.bases[id].state.Load().switched() {
			t.Fatalf("base %d has not switched", id)
		}
		for _, d := range ps.deltas[id] {
			if d.state.Load().switched() {
				t.Fatalf("a delta of partition %d switched unqueried", id)
			}
		}
	}
	// The first query meets every delta still encoding; later ones meet
	// them as the queries before left them.
	live := ps.live(s)
	for i, q := range queries {
		want := serveJSON(t, s, dir, meta, nil, q)
		if got := serveJSON(t, s, dir, meta, live, q); !bytes.Equal(got, want) {
			t.Fatalf("query %d, %s: switched base + encoding deltas differ from merge-on-read:\n got %.300s\nwant %.300s",
				i, q, got, want)
		}
	}
}

// TestArenaNeverSwitchesOnBadRecord pins a segment holding a record its
// AppendJSON refuses (a NaN reading): it never switches, queries that miss
// the record succeed, and a query that matches it fails with the error an
// encoding segment gives.
func TestArenaNeverSwitchesOnBadRecord(t *testing.T) {
	s := registry["air"].(schema[AirRec])
	recs := randomAirs(300, 1)
	recs[7].Loc, recs[7].Indices[2] = geom.Pt(9.5, 9.5), math.NaN()
	dir, meta := pinStore(t, s, recs, false)
	ps := pinAll(t, s, dir, meta)
	g := ps.bases[0]
	miss := arenaQuery{selection.Window{Space: geom.Box(0, 0, 9, 10), Time: tempo.New(0, 100)}, QueryOptions{Records: true}}
	hit := arenaQuery{allWindow, QueryOptions{Records: true}}
	want := serveJSON(t, s, dir, meta, nil, miss)
	// Each miss query encodes most of the segment: the third or fourth
	// reaches break-even and tries to build the arena.
	for i := 0; i < 6; i++ {
		if got := serveJSON(t, s, dir, meta, ps.baseOnly, miss); !bytes.Equal(got, want) {
			t.Fatalf("miss query %d differs from a fresh segment's", i)
		}
	}
	if !g.switching.Load() || g.state.Load().switched() || g.served.Load() < int64(g.n) {
		t.Fatalf("segment past break-even (served %d of %d): build tried %v, switched %v",
			g.served.Load(), g.n, g.switching.Load(), g.state.Load().switched())
	}
	ctx := engine.New(engine.Config{Slots: 1})
	_, wantErr := s.ServeQuery(ctx, dir, meta, nil, hit.w, hit.opts)
	_, err := s.ServeQuery(ctx, dir, meta, ps.baseOnly, hit.w, hit.opts)
	if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("query matching the NaN record: %v; a fresh segment gives %v", err, wantErr)
	}
}

// TestArenaSwitchUnderConcurrentQueries issues records and count queries
// on one segment from several goroutines while it switches; every reply
// must equal a fresh segment's. Run it under -race.
func TestArenaSwitchUnderConcurrentQueries(t *testing.T) {
	s := registry["nyc"].(schema[EventRec])
	dir, meta := pinStore(t, s, randomEvents(2000, 1), false, randomEvents(50, 2))
	queries := arenaQueries(t, s, dir, meta)
	for _, q := range queries[:len(queries)/2] {
		q.opts.Records = false
		queries = append(queries, q)
	}
	fresh := make([][]byte, len(queries))
	for i, q := range queries {
		fresh[i] = serveJSON(t, s, dir, meta, nil, q)
	}
	ps := pinAll(t, s, dir, meta)
	live := ps.live(s)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := engine.New(engine.Config{Slots: 2})
			for k := 0; k < 3*len(queries); k++ {
				i := (k*5 + w*7) % len(queries)
				q := queries[i]
				res, err := s.ServeQuery(ctx, dir, meta, live, q.w, q.opts)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", w, q, err)
					return
				}
				if got, _ := json.Marshal(res); !bytes.Equal(got, fresh[i]) {
					t.Errorf("goroutine %d, %s: reply differs from a fresh segment's", w, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, g := range ps.segments() {
		if !g.state.Load().switched() {
			t.Errorf("segment %d of %d records did not switch (served %d)", i, g.n, g.served.Load())
		}
	}
}
