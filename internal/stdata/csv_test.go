package stdata

import (
	"reflect"
	"strings"
	"testing"

	"st4ml/internal/geom"
)

func TestEventsCSVRoundTrip(t *testing.T) {
	recs := []EventRec{
		{ID: 1, Loc: geom.Pt(-74.0, 40.7), Time: 1357000000, Aux: "pickup"},
		{ID: 2, Loc: geom.Pt(-73.9, 40.8), Time: 1357000100, Aux: ""},
	}
	in := "id,lon,lat,time,aux\n" +
		"1,-74,40.7,1357000000,pickup\n" +
		"2,-73.9,40.8,1357000100,\n"
	got, err := ReadEventsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip:\n%v\n%v", got, recs)
	}
}

func TestTrajsCSVRoundTrip(t *testing.T) {
	recs := []TrajRec{
		{ID: 7, Points: []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4)}, Times: []int64{10, 25}},
		{ID: 8, Points: []geom.Point{geom.Pt(-1, -2)}, Times: []int64{0}},
	}
	in := "id,points,times\n" +
		"7,1 2 3 4,10 25\n" +
		"8,-1 -2,0\n"
	got, err := ReadTrajsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip:\n%v\n%v", got, recs)
	}
}

func TestReadEventsCSVWithoutHeaderOrAux(t *testing.T) {
	got, err := ReadEventsCSV(strings.NewReader("5,1.5,2.5,99\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 5 || got[0].Aux != "" {
		t.Fatalf("got %v", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	eventCases := []string{
		"",
		"id,lon,lat,time\n", // header only
		"1,x,2,3\n",
		"1,2,3\n", // too few fields
		"1,2,3,notint\n",
		"id,lon,lat,time\nbad,1,2,3\n", // bad id after header
	}
	for _, in := range eventCases {
		if _, err := ReadEventsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEventsCSV(%q) should error", in)
		}
	}
	trajCases := []string{
		"",
		`1,"1 2 3","10 20"`, // odd coords
		`1,"1 2 3 4","10"`,  // timestamp count mismatch
		`1,"a b","10"`,      // bad coord
		`1,"1 2","x"`,       // bad time
		`1,"",""`,           // empty trajectory
	}
	for _, in := range trajCases {
		if _, err := ReadTrajsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTrajsCSV(%q) should error", in)
		}
	}
}
