package baseline

import (
	"sort"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/stdata"
	"st4ml/internal/tempo"
)

func TestTimeFormatRoundTrip(t *testing.T) {
	for _, ts := range []int64{0, 1356998400, 1388534399} {
		if got := ParseTime(FormatTime(ts)); got != ts {
			t.Errorf("round trip %d -> %d", ts, got)
		}
	}
	if ParseTime("not a time") != 0 {
		t.Error("malformed time should parse to 0")
	}
}

func TestFeatureConversions(t *testing.T) {
	ev := datagen.NYC(1, 1)[0]
	f := FromEventRec(ev)
	if len(f.Shape) != 1 || f.Shape[0] != ev.Loc {
		t.Errorf("shape = %v", f.Shape)
	}
	if got := f.Times(); len(got) != 1 || got[0] != ev.Time {
		t.Errorf("times = %v, want %d", got, ev.Time)
	}

	tr := datagen.Porto(1, 1)[0]
	ft := FromTrajRec(tr)
	times := ft.Times()
	if len(times) != len(tr.Times) {
		t.Fatalf("times = %d, want %d", len(times), len(tr.Times))
	}
	for i := range times {
		if times[i] != tr.Times[i] {
			t.Fatalf("time %d = %d, want %d", i, times[i], tr.Times[i])
		}
	}
	if d := ft.Duration(); d.Start != tr.Times[0] || d.End != tr.Times[len(tr.Times)-1] {
		t.Errorf("duration = %v", d)
	}

	air := datagen.Air(1, 1, 1, 3600, 1)[0]
	fa := FromAirRec(air)
	if fa.Attrs["pm25"] == "" {
		t.Error("air indices lost")
	}
	poi, _ := datagen.OSM(1, 1, 1)
	fp := FromPOIRec(poi[0])
	if fp.Attrs["type"] == "" {
		t.Error("poi type lost")
	}
}

func TestFeatureCodecRoundTrip(t *testing.T) {
	tr := datagen.Porto(1, 2)[0]
	f := FromTrajRec(tr)
	got, err := codec.Unmarshal(FeatureC, codec.Marshal(FeatureC, f))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != f.ID || len(got.Shape) != len(f.Shape) || got.Attrs["times"] != f.Attrs["times"] {
		t.Error("feature round trip mismatch")
	}
}

func TestGeoSparkLoadAndRangeQuery(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 4})
	events := datagen.NYC(3000, 3)
	dir := t.TempDir()
	if _, err := IngestEventsToDisk(ctx, events, dir, 8); err != nil {
		t.Fatal(err)
	}
	gs := NewGeoSpark(ctx)
	if err := gs.Load(dir, 16); err != nil {
		t.Fatal(err)
	}
	if got := gs.loaded.Count(); got != 3000 {
		t.Fatalf("loaded = %d", got)
	}
	space := geom.Box(-74.0, 40.7, -73.9, 40.8)
	dur := tempo.New(datagen.Year2013.Start, datagen.Year2013.Start+90*86400)
	got := gs.RangeQuery(space, dur).Collect()
	want := bruteRange(events, space, dur)
	if !sameIDs(featureIDs(got), want) {
		t.Fatalf("range query: got %d, want %d records", len(got), len(want))
	}
}

func TestGeoMesaQueryMatchesBruteAndPrunes(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 4})
	events := datagen.NYC(5000, 4)
	feats := make([]Feature, len(events))
	for i, e := range events {
		feats[i] = FromEventRec(e)
	}
	dir := t.TempDir()
	if err := GeoMesaIngest(ctx, feats, dir, datagen.NYCExtent, datagen.Year2013, 8, 7*86400, 256); err != nil {
		t.Fatal(err)
	}
	gm, err := OpenGeoMesa(ctx, dir, datagen.NYCExtent, datagen.Year2013, 8, 7*86400)
	if err != nil {
		t.Fatal(err)
	}
	space := geom.Box(-74.0, 40.7, -73.95, 40.75)
	dur := tempo.New(datagen.Year2013.Start, datagen.Year2013.Start+30*86400)
	rdd, scanned := gm.Query(space, dur)
	got := featureIDs(rdd.Collect())
	want := bruteRange(events, space, dur)
	if !sameIDs(got, want) {
		t.Fatalf("geomesa query: got %d, want %d", len(got), len(want))
	}
	total := (5000 + 255) / 256
	if scanned >= total {
		t.Errorf("no pruning: scanned %d of %d chunks", scanned, total)
	}
}

func bruteRange(events []stdata.EventRec, space geom.MBR, dur tempo.Duration) []int64 {
	var out []int64
	for _, e := range events {
		if space.ContainsPoint(e.Loc) && dur.Contains(e.Time) {
			out = append(out, e.ID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func featureIDs(fs []Feature) []int64 {
	out := make([]int64, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []int64) bool {
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
