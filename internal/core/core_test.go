package core

import (
	"testing"

	"st4ml/internal/convert"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/extract"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/tempo"
)

func TestSessionLifecycle(t *testing.T) {
	s := NewSession(engine.Config{Slots: 2})
	if s.Context() == nil {
		t.Fatal("nil context")
	}
	if s.Context().Slots() != 2 {
		t.Errorf("slots = %d", s.Context().Slots())
	}
	if got := s.Metrics(); got.TasksRun != 0 {
		t.Errorf("fresh session ran tasks: %+v", got)
	}
}

func TestWindowHelper(t *testing.T) {
	w := Window(geom.Box(0, 0, 1, 1), tempo.New(5, 10))
	if w.Space != geom.Box(0, 0, 1, 1) || w.Time != tempo.New(5, 10) {
		t.Errorf("Window = %+v", w)
	}
}

// TestEndToEndPipeline runs the §3.4 example through the facade: ingest,
// select, convert, extract.
func TestEndToEndPipeline(t *testing.T) {
	s := NewSession(engine.Config{Slots: 4})
	dir := t.TempDir()
	trajs := datagen.Porto(500, 3)
	meta, err := s.IngestTrajs(trajs, dir, nil, selection.IngestOptions{Name: "porto"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.TotalCount != 500 {
		t.Fatalf("ingested %d", meta.TotalCount)
	}

	week := tempo.New(datagen.Year2013.Start, datagen.Year2013.Start+7*86400-1)
	sel := s.TrajSelector(selection.Config{Index: true})
	recs, stats, err := sel.SelectPruned(dir, Window(datagen.PortoExtent, week))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SelectedRecords == 0 {
		t.Skip("no trajectories in the first week at this seed")
	}

	grid := instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: datagen.PortoExtent, NX: 4, NY: 4},
		Time:  instance.TimeGrid{Window: week, NT: 7},
	}
	cells := convert.TrajToRaster(TrajInstances(recs), convert.RasterGridTarget(grid),
		convert.Auto, func(in []instance.Trajectory[instance.Unit, int64]) []instance.Trajectory[instance.Unit, int64] {
			return in
		})
	speeds, ok := extract.RasterSpeed(cells, extract.KMH)
	if !ok {
		t.Fatal("no extraction result")
	}
	var total int64
	for _, e := range speeds.Entries {
		total += e.Value.Count
	}
	if total == 0 {
		t.Error("no vehicle observations in raster")
	}
}

func TestTypedSelectorsAndIngests(t *testing.T) {
	s := NewSession(engine.Config{Slots: 4})

	// Events.
	evDir := t.TempDir()
	events := datagen.NYC(800, 1)
	if _, err := s.IngestEvents(events, evDir, partition.TSTR{GT: 2, GS: 2},
		selection.IngestOptions{Name: "ev"}); err != nil {
		t.Fatal(err)
	}
	evSel := s.EventSelector(selection.Config{})
	evs, _, err := evSel.SelectPruned(evDir, Window(datagen.NYCExtent, datagen.Year2013))
	if err != nil {
		t.Fatal(err)
	}
	if got := evs.Count(); got != 800 {
		t.Errorf("events selected = %d", got)
	}
	inst := EventInstances(evs).Collect()
	if len(inst) != 800 || inst[0].Entry.Value == "" {
		t.Error("event instances malformed")
	}

	// POIs (no temporal dimension), stored and selected through the stage
	// packages directly.
	poiDir := t.TempDir()
	pois, _ := datagen.OSM(600, 4, 3)
	if _, err := selection.Ingest(engine.Parallelize(s.Context(), pois, 0), poiDir,
		stdata.POIRecC, stdata.POIRec.Box, partition.STR2D{N: 64},
		selection.IngestOptions{Name: "poi"}); err != nil {
		t.Fatal(err)
	}
	poiSel := selection.New(s.Context(), stdata.POIRecC, stdata.POIRec.Box, nil, selection.Config{Index: true})
	sel, _, err := poiSel.SelectPruned(poiDir,
		Window(datagen.WorldExtent, tempo.New(-1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Count(); got != 600 {
		t.Errorf("pois selected = %d", got)
	}
	if got := POIInstances(sel).Count(); got != 600 {
		t.Errorf("poi instances = %d", got)
	}
}

func TestTrajSelectorExactRefinement(t *testing.T) {
	// The typed trajectory selector refines at segment level: a window in
	// the empty corner of a diagonal trajectory's MBR must not match.
	s := NewSession(engine.Config{Slots: 2})
	dir := t.TempDir()
	diag := datagen.Porto(1, 9)[0]
	// Force a clean diagonal.
	diag.Points = []geom.Point{geom.Pt(-8.69, 41.11), geom.Pt(-8.51, 41.24)}
	diag.Times = []int64{1000, 2000}
	if _, err := s.IngestTrajs([]stdata.TrajRec{diag}, dir, nil,
		selection.IngestOptions{Name: "diag"}); err != nil {
		t.Fatal(err)
	}
	sel := s.TrajSelector(selection.Config{Index: true})
	// Window in the north-west corner, off the diagonal.
	corner := Window(geom.Box(-8.68, 41.22, -8.66, 41.235), tempo.New(0, 3000))
	got, _, err := sel.SelectPruned(dir, corner)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Error("exact refinement should reject the MBR-only match")
	}
	// A window on the diagonal matches.
	onPath := Window(geom.Box(-8.61, 41.16, -8.58, 41.19), tempo.New(0, 3000))
	got, _, err = sel.SelectPruned(dir, onPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 1 {
		t.Error("exact refinement should keep the on-path match")
	}
}
