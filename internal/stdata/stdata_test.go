package stdata

import (
	"reflect"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

func TestEventRecBoxAndInstance(t *testing.T) {
	e := EventRec{ID: 9, Loc: geom.Pt(1, 2), Time: 100, Aux: "pickup"}
	b := e.Box()
	if b.Spatial() != geom.Box(1, 2, 1, 2) || b.Temporal() != tempo.Instant(100) {
		t.Errorf("Box = %+v", b)
	}
	inst := e.ToEvent()
	if inst.Data != 9 || inst.Entry.Value != "pickup" || inst.Entry.Spatial != geom.Pt(1, 2) {
		t.Errorf("ToEvent = %+v", inst)
	}
}

func TestTrajRecBoxAndInstance(t *testing.T) {
	tr := TrajRec{
		ID:     3,
		Points: []geom.Point{geom.Pt(0, 0), geom.Pt(2, 1)},
		Times:  []int64{50, 100},
	}
	b := tr.Box()
	if b.Spatial() != geom.Box(0, 0, 2, 1) || b.Temporal() != tempo.New(50, 100) {
		t.Errorf("Box = %+v", b)
	}
	inst := tr.ToTrajectory()
	if inst.Data != 3 || inst.Len() != 2 {
		t.Errorf("ToTrajectory = %+v", inst)
	}
	if inst.Entries[0].Temporal != tempo.Instant(50) {
		t.Error("entry time mismatch")
	}
}

func TestAirRecInstanceCarriesIndices(t *testing.T) {
	a := AirRec{StationID: 5, Loc: geom.Pt(1, 1), Time: 60,
		Indices: [6]float64{1, 2, 3, 4, 5, 6}}
	inst := a.ToEvent()
	if inst.Entry.Value != a.Indices || inst.Data != 5 {
		t.Errorf("ToEvent = %+v", inst)
	}
}

func TestPOIRecNoTime(t *testing.T) {
	p := POIRec{ID: 1, Loc: geom.Pt(3, 4), Type: "park"}
	b := p.Box()
	if b.Spatial() != geom.Box(3, 4, 3, 4) {
		t.Errorf("Box = %+v", b)
	}
	if b.Temporal() != tempo.Instant(0) {
		t.Errorf("POI temporal = %v", b.Temporal())
	}
}

func TestAreaRecString(t *testing.T) {
	a := AreaRec{ID: 7, Shape: geom.Box(0, 0, 1, 1).ToPolygon()}
	if a.String() != "area-7" {
		t.Errorf("String = %q", a.String())
	}
}

func TestCodecsRejectCorruptInput(t *testing.T) {
	good := codec.Marshal(TrajRecC, TrajRec{
		ID:     1,
		Points: []geom.Point{geom.Pt(0, 0)},
		Times:  []int64{1},
	})
	if _, err := codec.Unmarshal(TrajRecC, good[:len(good)-2]); err == nil {
		t.Error("truncated trajectory should error")
	}
	if _, err := codec.Unmarshal(EventRecC, []byte{0xff}); err == nil {
		t.Error("garbage event should error")
	}
}

func TestEmptyTrajRecRoundTrip(t *testing.T) {
	tr := TrajRec{ID: 2}
	got, err := codec.Unmarshal(TrajRecC, codec.Marshal(TrajRecC, tr))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 2 || len(got.Points) != 0 {
		t.Errorf("round trip = %+v", got)
	}
	if !tr.Box().IsEmpty() {
		t.Error("empty trajectory should have empty box")
	}
}

func TestCodecRoundTripsPreserveEverything(t *testing.T) {
	ev := EventRec{ID: -5, Loc: geom.Pt(-8.6, 41.1), Time: 1357000000, Aux: "x,y\n"}
	gotEv, err := codec.Unmarshal(EventRecC, codec.Marshal(EventRecC, ev))
	if err != nil || !reflect.DeepEqual(gotEv, ev) {
		t.Errorf("event round trip: %+v (%v)", gotEv, err)
	}
	ar := AirRec{StationID: 0, Loc: geom.Pt(113, 29), Time: -1,
		Indices: [6]float64{0.5, 0, 99, 3, 2, 1}}
	gotAr, err := codec.Unmarshal(AirRecC, codec.Marshal(AirRecC, ar))
	if err != nil || !reflect.DeepEqual(gotAr, ar) {
		t.Errorf("air round trip: %v", err)
	}
	poi := POIRec{ID: 1 << 40, Loc: geom.Pt(0, 0), Type: ""}
	gotPoi, err := codec.Unmarshal(POIRecC, codec.Marshal(POIRecC, poi))
	if err != nil || !reflect.DeepEqual(gotPoi, poi) {
		t.Errorf("poi round trip: %v", err)
	}
}
