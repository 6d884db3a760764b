package instance

import (
	"strconv"
	"strings"
	"testing"

	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

func TestReadRasterCSV(t *testing.T) {
	in := `shape,t_min,t_max
"POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",0,3599
"POLYGON ((1 0, 2 0, 2 1, 1 1, 1 0))",0,3599
"POINT (5 5)",3600,7199
`
	cells, slots, err := ReadRasterCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 || len(slots) != 3 {
		t.Fatalf("cells=%d slots=%d", len(cells), len(slots))
	}
	if _, ok := cells[0].(*geom.Polygon); !ok {
		t.Errorf("cell 0 type %T", cells[0])
	}
	if _, ok := cells[2].(geom.Point); !ok {
		t.Errorf("cell 2 type %T", cells[2])
	}
	if slots[2] != tempo.New(3600, 7199) {
		t.Errorf("slot 2 = %v", slots[2])
	}
}

func TestReadRasterCSVNoHeader(t *testing.T) {
	in := `"POINT (1 2)",10,20`
	cells, slots, err := ReadRasterCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || slots[0] != tempo.New(10, 20) {
		t.Fatalf("cells=%v slots=%v", cells, slots)
	}
}

func TestReadRasterCSVErrors(t *testing.T) {
	cases := []string{
		"",
		`shape,t_min,t_max`,
		`"CIRCLE (1)",0,10`,
		`"POINT (1 2)",x,10`,
		`"POINT (1 2)",0,y`,
		`"POINT (1 2)",0`,
	}
	for _, in := range cases {
		if _, _, err := ReadRasterCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadRasterCSV(%q) should error", in)
		}
	}
}

func TestWriteReadRasterRoundTrip(t *testing.T) {
	g := RasterGrid{
		Space: SpatialGrid{Extent: geom.Box(0, 0, 2, 2), NX: 2, NY: 2},
		Time:  TimeGrid{Window: tempo.New(0, 7199), NT: 2},
	}
	cells, slots := g.Build()
	values := make([]int64, len(cells))
	for i := range values {
		values[i] = int64(i * 10)
	}
	ra := NewRaster(cells, slots, values, Unit{})
	var sb strings.Builder
	if err := WriteRasterCSV(&sb, ra, func(v int64) string {
		return strconv.FormatInt(v, 10)
	}); err != nil {
		t.Fatal(err)
	}
	// The structure columns read back as a raster definition.
	gotCells, gotSlots, err := ReadRasterCSV(onlyStructureColumns(t, sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotCells) != len(cells) {
		t.Fatalf("cells = %d, want %d", len(gotCells), len(cells))
	}
	for i := range cells {
		if gotSlots[i] != slots[i] {
			t.Errorf("slot %d = %v, want %v", i, gotSlots[i], slots[i])
		}
		if gotCells[i].MBR() != cells[i].MBR() {
			t.Errorf("cell %d MBR mismatch", i)
		}
	}
}

// onlyStructureColumns drops the value column so the feature CSV parses as
// a structure CSV.
func onlyStructureColumns(t *testing.T, s string) *strings.Reader {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	var out []string
	for _, l := range lines {
		idx := strings.LastIndex(l, ",")
		if idx < 0 {
			t.Fatalf("bad csv line %q", l)
		}
		out = append(out, l[:idx])
	}
	return strings.NewReader(strings.Join(out, "\n"))
}

func TestWriteSpatialMapAndTimeSeriesCSV(t *testing.T) {
	sm := NewSpatialMap(
		[]*geom.Polygon{geom.Box(0, 0, 1, 1).ToPolygon()},
		[]float64{2.5}, Unit{})
	var sb strings.Builder
	if err := WriteSpatialMapCSV(&sb, sm, func(v float64) string {
		return strconv.FormatFloat(v, 'f', 2, 64)
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "POLYGON") || !strings.Contains(sb.String(), "2.50") {
		t.Errorf("spatial map csv = %q", sb.String())
	}

	ts := NewTimeSeries(tempo.New(0, 99).Split(2), []int64{4, 5}, geom.EmptyMBR(), Unit{})
	sb.Reset()
	if err := WriteTimeSeriesCSV(&sb, ts, func(v int64) string {
		return strconv.FormatInt(v, 10)
	}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 || lines[1] != "0,49,4" {
		t.Errorf("time series csv = %q", sb.String())
	}
}
