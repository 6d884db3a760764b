package stdata

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/tempo"
)

// checkRecordJSON compares a schema encoder with json.Marshal on rec: the
// same bytes, appended after whatever dst already held, or an error from
// both.
func checkRecordJSON[T any](t *testing.T, name string, enc func([]byte, T) ([]byte, error), rec T) {
	t.Helper()
	want, werr := json.Marshal(rec)
	prefix := []byte("prefix,")
	got, gerr := enc(append([]byte(nil), prefix...), rec)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%s %+v: json.Marshal error %v, AppendJSON error %v", name, rec, werr, gerr)
	case werr == nil && !bytes.Equal(got, append(prefix, want...)):
		t.Fatalf("%s %+v:\n AppendJSON %s\n Marshal    %s%s", name, rec, got, prefix, want)
	}
}

// FuzzRecordJSON holds every registered schema's AppendJSON to
// json.Marshal byte for byte, and to failing on exactly the same records
// (NaN and ±Inf coordinates or indices). One input drives all four record
// types; shape picks nil, empty or filled trajectory slices.
func FuzzRecordJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		x, y  float64
		aux   string
		shape uint8
	}{
		{negZero, 0, "pickup", 0},
		{5e-324, -5e-324, "", 1},
		{1e-7, -1e-7, "<>&", 2},
		{1e-6, 9.99e20, "a\"b\\c/d", 3},
		{1e21, -1e21, "\x00\x01\b\f\n\r\t\x1f\x7f", 7},
		{math.NaN(), 1, "x", 9},
		{1, math.Inf(1), "y", 13},
		{math.Inf(-1), 2, "z", 17},
		{123.456, -73.98765432101234, "\xff\xfe\xe2\x80", 20},
		{1.5e300, 2.5e-300, "line\xe2\x80\xa8para\xe2\x80\xa9end", 22},
		{0.1, 1e20, "h\xc3\xa9llo \xe4\xb8\x96\xe7\x95\x8c <b>&amp;</b>", 255},
	} {
		f.Add(int64(-7), int64(1700000000), seed.x, seed.y, seed.aux, seed.shape)
	}
	f.Fuzz(func(t *testing.T, id, ts int64, x, y float64, aux string, shape uint8) {
		loc := geom.Pt(x, y)
		checkRecordJSON(t, "nyc", appendEventJSON, EventRec{ID: id, Loc: loc, Time: ts, Aux: aux})
		checkRecordJSON(t, "osm", appendPOIJSON, POIRec{ID: id, Loc: loc, Type: aux})
		checkRecordJSON(t, "air", appendAirJSON, AirRec{StationID: id, Loc: loc, Time: ts,
			Indices: [6]float64{x, y, x * y, x / 3, -y, 1 / x}})

		// Bits 0 and 1 make Points and Times nil; otherwise shape>>2 mod 5
		// sizes them, 0 being empty and not nil.
		tr := TrajRec{ID: id}
		n := int(shape>>2) % 5
		if shape&1 == 0 {
			tr.Points = make([]geom.Point, n)
			for i := range tr.Points {
				tr.Points[i] = geom.Pt(x+float64(i), y*float64(i))
			}
		}
		if shape&2 == 0 {
			tr.Times = make([]int64, n)
			for i := range tr.Times {
				tr.Times[i] = ts - int64(i)
			}
		}
		checkRecordJSON(t, "porto", appendTrajJSON, tr)
	})
}

// jsonBenchRecords is one serve-corpus-like record of each schema, so a
// record costs what a served one does.
func jsonBenchRecords(n int) ([]EventRec, []TrajRec, []AirRec, []POIRec) {
	rng := rand.New(rand.NewSource(1))
	lon := func() float64 { return -74.05 + rng.Float64()*0.3 }
	lat := func() float64 { return 40.6 + rng.Float64()*0.3 }
	ev, tr, air, poi := make([]EventRec, n), randomTrajs(n, 1), make([]AirRec, n), make([]POIRec, n)
	for i := range ev {
		ts := 1.7e9 + rng.Int63n(3e7)
		ev[i] = EventRec{ID: int64(i), Loc: geom.Pt(lon(), lat()), Time: ts, Aux: []string{"pickup", "dropoff"}[i%2]}
		air[i] = AirRec{StationID: int64(i % 40), Loc: geom.Pt(lon(), lat()), Time: ts}
		for j := range air[i].Indices {
			air[i].Indices[j] = rng.Float64() * 200
		}
		poi[i] = POIRec{ID: int64(i), Loc: geom.Pt(lon(), lat()), Type: "restaurant"}
	}
	return ev, tr, air, poi
}

func benchRecordJSON[T any](b *testing.B, recs []T, enc func([]byte, T) ([]byte, error)) {
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = enc(buf[:0], recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecordJSON measures one record's JSON encoding per schema, by
// reflection (json.Marshal, the encoder replies used before) and by the
// schema's AppendJSON into a reused buffer. Run with -benchmem.
func BenchmarkRecordJSON(b *testing.B) {
	ev, tr, air, poi := jsonBenchRecords(1024)
	b.Run("nyc", func(b *testing.B) { benchRecordJSON(b, ev, appendEventJSON) })
	b.Run("porto", func(b *testing.B) { benchRecordJSON(b, tr, appendTrajJSON) })
	b.Run("air", func(b *testing.B) { benchRecordJSON(b, air, appendAirJSON) })
	b.Run("osm", func(b *testing.B) { benchRecordJSON(b, poi, appendPOIJSON) })
}

// BenchmarkServeQueryRecords measures a warm served query that returns its
// records: one pinned 12.5k-event nyc partition and a window selecting
// about 1k of them (16 % of the area × half the time range), reported per
// record alongside allocs/op.
func BenchmarkServeQueryRecords(b *testing.B) {
	nyc := registry["nyc"].(schema[EventRec])
	dir, meta := pinStore(b, nyc, randomEvents(12500, 1), false)
	fetch := cachedFetch(b, nyc, dir, meta)
	ctx := engine.New(engine.Config{Slots: 1})
	w := selection.Window{Space: geom.Box(3, 3, 7, 7), Time: tempo.New(25, 75)}
	res, err := nyc.ServeQuery(ctx, dir, meta, fetch, w, QueryOptions{Records: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nyc.ServeQuery(ctx, dir, meta, fetch, w, QueryOptions{Records: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(res.Records)), "ns/record")
	b.ReportMetric(float64(len(res.Records)), "records/op")
}
