package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sync/atomic"
	"time"

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

// pipelineWorkload is pipeline_batch: the paper's own use of the system —
// Selection–Conversion–Extraction jobs on the engine, no daemon. A batch
// job is always cold: every op reads v3 blocks through the selector with
// no cache in front of it, so it is the steady consumer of storage/codec
// read speed, and the only workload in which convert, extract and the
// engine's shuffle do the work.
type pipelineWorkload struct {
	cfg config

	events   []stdata.EventRec
	trajs    []stdata.TrajRec
	evWins   []selection.Window
	trajWins []selection.Window
	// want[op] is the brute-force outcome of op, laid out like ops.
	want []appResult

	ctx   *engine.Context
	evDir string
	trDir string
	evSel *selection.Selector[stdata.EventRec]
	trSel *selection.Selector[stdata.TrajRec]
	next  atomic.Int64
	byApp [numApps][]float64 // measured latencies per app, for the tail check
	// firstBad describes the first op that did not verify.
	firstBad string
	// setupShuffleBytes is what the two ingest jobs shuffled.
	setupShuffleBytes int64
}

// The four Table-7 applications the workload runs, in their built-in
// extractor form. An op is one application run over one window.
const (
	appAnomaly    = iota // events, no conversion
	appHourlyFlow        // Event -> TimeSeries
	appGridSpeed         // Traj -> SpatialMap (the R-tree conversion of §4.3)
	appTransition        // Traj -> Raster
	numApps
)

var appNames = [numApps]string{"anomaly", "hourly-flow", "grid-speed", "transition"}

// Fixed application parameters (Table 7).
const (
	anomalyLo, anomalyHi = 23, 4 // night hours
	flowSlots            = 24
	gridNX, gridNY       = 20, 20
	rasterNX, rasterNY   = 10, 10
	rasterNT             = 24
)

// appResult is what one op yields: how many records entered extraction
// and a digest of the extracted feature.
type appResult struct {
	Selected int64
	Checksum float64
}

// same compares a run's outcome with the reference. Integer features must
// match exactly; grid-speed sums rounded means whose float accumulation
// order differs between the engine and the reference, so it gets the
// width of two rounding flips.
func (a appResult) same(b appResult, app int) bool {
	if a.Selected != b.Selected {
		return false
	}
	if app == appGridSpeed {
		return math.Abs(a.Checksum-b.Checksum) <= 0.02+1e-9*math.Abs(b.Checksum)
	}
	return a.Checksum == b.Checksum
}

type (
	eventInst = instance.Event[geom.Point, string, int64]
	trajInst  = instance.Trajectory[instance.Unit, int64]
)

func speedGrid() instance.SpatialGrid {
	return instance.SpatialGrid{Extent: datagen.PortoExtent, NX: gridNX, NY: gridNY}
}

func transitionGrid(w selection.Window) instance.RasterGrid {
	return instance.RasterGrid{
		Space: instance.SpatialGrid{Extent: w.Space, NX: rasterNX, NY: rasterNY},
		Time:  instance.TimeGrid{Window: w.Time, NT: rasterNT},
	}
}

// round2 quantizes a mean for checksum stability; an empty cell's NaN
// counts as 0.
func round2(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return math.Round(v*100) / 100
}

// cellWeight spreads raster cell indices over small weights so a count
// landing in the wrong cell changes the checksum.
func cellWeight(i int) float64 { return float64(i%97 + 1) }

func (w *pipelineWorkload) numOps() int { return numApps * len(w.evWins) }

// opOf maps an op index onto (application, window): windows in order, the
// four applications over each.
func (w *pipelineWorkload) opOf(i int64) (app, win int) {
	k := int(i % int64(w.numOps()))
	return k % numApps, k / numApps
}

func (w *pipelineWorkload) prepare() string {
	sc := w.cfg.scale
	seed := w.cfg.seed
	w.events = genEvents(sc.PipeEvents)
	w.trajs = genTrajs(sc.Trajs)
	w.evWins = genWindows(datagen.NYCExtent, sc.PipeWindows, subSeed(seed, seedWindows))
	w.trajWins = genWindows(datagen.PortoExtent, sc.PipeWindows, subSeed(seed, seedTrajWin))

	w.want = make([]appResult, w.numOps())
	eachWindow(len(w.evWins), func(i int) {
		w.want[i*numApps+appAnomaly] = refAnomaly(w.events, w.evWins[i])
		w.want[i*numApps+appHourlyFlow] = refHourlyFlow(w.events, w.evWins[i])
		w.want[i*numApps+appGridSpeed] = refGridSpeed(w.trajs, w.trajWins[i])
		w.want[i*numApps+appTransition] = refTransition(w.trajs, w.trajWins[i])
	})

	d := newInputDigest()
	d.events(w.events)
	d.trajs(w.trajs)
	d.windows(w.evWins)
	d.windows(w.trajWins)
	return d.sum()
}

func (w *pipelineWorkload) setup(dir string) (time.Duration, error) {
	t0 := time.Now()
	w.ctx = engine.New(engine.Config{})
	w.evDir = filepath.Join(dir, "events")
	w.trDir = filepath.Join(dir, "trajs")
	// Stores as in the paper-figure harness: T-STR 12x8, 512-record blocks.
	planner := partition.TSTR{GT: 12, GS: 8}
	if _, err := selection.Ingest(engine.Parallelize(w.ctx, w.events, 0), w.evDir,
		stdata.EventRecC, stdata.EventRec.Box, planner,
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.05, Seed: ingestSeed, BlockRecords: 512}); err != nil {
		return 0, fmt.Errorf("ingest events: %w", err)
	}
	if _, err := selection.Ingest(engine.Parallelize(w.ctx, w.trajs, 0), w.trDir,
		stdata.TrajRecC, stdata.TrajRec.Box, planner,
		selection.IngestOptions{Name: "porto", SampleFrac: 0.05, Seed: ingestSeed, BlockRecords: 512}); err != nil {
		return 0, fmt.Errorf("ingest trajectories: %w", err)
	}
	w.setupShuffleBytes = w.ctx.Metrics.Snapshot().ShuffleBytes
	// Selection with per-partition R-trees and the stage-2 ST repartition
	// (the shuffle), as the applications of Fig. 7 run it.
	cfg := selection.Config{Index: true, Planner: partition.TSTR{GT: 4, GS: 4}, SampleFrac: 0.1}
	w.evSel = selection.New(w.ctx, stdata.EventRecC, stdata.EventRec.Box, nil, cfg)
	w.trSel = selection.New(w.ctx, stdata.TrajRecC, stdata.TrajRec.Box, nil, cfg)
	for app := 0; app < numApps; app++ {
		if s := w.do(int64(app)); !s.ok {
			return 0, fmt.Errorf("first %s run did not verify: %s", appNames[app], w.firstBad)
		}
	}
	w.byApp = [numApps][]float64{}
	return time.Since(t0), nil
}

func (w *pipelineWorkload) teardown() {}

// runApp executes one application over one window: SelectPruned, convert,
// extract, collect.
func (w *pipelineWorkload) runApp(app, win int) (res appResult, err error) {
	// Engine jobs report task failures by panicking on the driver.
	err = engine.Try(func() {
		switch app {
		case appAnomaly, appHourlyFlow:
			recs, st, serr := w.evSel.SelectPruned(w.evDir, w.evWins[win])
			if serr != nil {
				panic(serr)
			}
			res.Selected = st.SelectedRecords
			events := engine.Map(recs, stdata.EventRec.ToEvent)
			if app == appAnomaly {
				res.Checksum = float64(anomalyCount(events))
				return
			}
			res.Checksum = flowChecksum(w.eventToTS(events, w.evWins[win]))
		default:
			recs, st, serr := w.trSel.SelectPruned(w.trDir, w.trajWins[win])
			if serr != nil {
				panic(serr)
			}
			res.Selected = st.SelectedRecords
			trajs := engine.Map(recs, stdata.TrajRec.ToTrajectory)
			if app == appGridSpeed {
				res.Checksum = speedChecksum(w.trajToSM(trajs))
				return
			}
			res.Checksum = transitChecksum(w.trajToRaster(trajs, w.trajWins[win]))
		}
	})
	return res, err
}

type (
	tsCells     = *engine.RDD[instance.TimeSeries[[]eventInst, instance.Unit]]
	smCells     = *engine.RDD[instance.SpatialMap[geom.MBR, []trajInst, instance.Unit]]
	rasterCells = *engine.RDD[instance.Raster[geom.MBR, []trajInst, instance.Unit]]
)

// trajMethod is how the trajectory conversions allocate records to cells:
// through an R-tree over the cells (§4.3), one built per task. convert.Auto
// would derive candidate cells arithmetically on these regular grids, and
// that derivation drops a cell whose border a segment touches within
// floating-point resolution (about one assignment in 2,600 on this corpus);
// the R-tree's answers equal the brute-force reference exactly.
const trajMethod = convert.RTree

func keepEvents(in []eventInst) []eventInst { return in }
func keepTrajs(in []trajInst) []trajInst    { return in }

func (w *pipelineWorkload) eventToTS(events *engine.RDD[eventInst], win selection.Window) tsCells {
	tgt := convert.TimeGridTarget(instance.TimeGrid{Window: win.Time, NT: flowSlots})
	return convert.EventToTimeSeries(events, tgt, convert.Auto, keepEvents)
}

func (w *pipelineWorkload) trajToSM(trajs *engine.RDD[trajInst]) smCells {
	return convert.TrajToSpatialMap(trajs, convert.SpatialGridTarget(speedGrid()), trajMethod, keepTrajs)
}

func (w *pipelineWorkload) trajToRaster(trajs *engine.RDD[trajInst], win selection.Window) rasterCells {
	return convert.TrajToRaster(trajs, convert.RasterGridTarget(transitionGrid(win)), trajMethod, keepTrajs)
}

// anomalyCount extracts the night-hour events and counts them.
func anomalyCount(events *engine.RDD[eventInst]) int64 {
	return extract.EventAnomaly(events, anomalyLo, anomalyHi).Count()
}

// flowChecksum extracts the per-slot event counts and digests them.
func flowChecksum(cells tsCells) float64 {
	ts, ok := extract.TsFlow(cells)
	if !ok {
		return 0
	}
	var sum float64
	for i, e := range ts.Entries {
		sum += float64(int64(i+1) * e.Value)
	}
	return sum
}

// speedChecksum extracts the mean speed per grid cell and digests it.
func speedChecksum(cells smCells) float64 {
	sm, ok := extract.SmSpeed(cells, extract.KMH)
	if !ok {
		return 0
	}
	var sum float64
	for _, e := range sm.Entries {
		sum += round2(e.Value)
	}
	return sum
}

// transitChecksum extracts the trajectories per ST cell and digests them.
func transitChecksum(cells rasterCells) float64 {
	ra, ok := extract.RasterFlow(cells)
	if !ok {
		return 0
	}
	var sum float64
	for i, e := range ra.Entries {
		sum += float64(e.Value) * cellWeight(i)
	}
	return sum
}

func (w *pipelineWorkload) do(i int64) sample {
	app, win := w.opOf(i)
	t0 := time.Now()
	res, err := w.runApp(app, win)
	s := sample{class: classOp, primary: true, ms: msSince(t0)}
	want := w.want[win*numApps+app]
	s.ok = err == nil && res.same(want, app)
	if !s.ok && w.firstBad == "" {
		w.firstBad = fmt.Sprintf("%s over window %d: got %+v, want %+v (err %v)", appNames[app], win, res, want, err)
	}
	w.byApp[app] = append(w.byApp[app], s.ms)
	return s
}

func (w *pipelineWorkload) warm(ctx context.Context, d time.Duration) error {
	w.next.Store(0)
	if m := closedLoop(ctx, 1, d, &w.next, w.do); m.failed() > 0 {
		return fmt.Errorf("%d warm-up runs did not verify; first: %s", m.failed(), w.firstBad)
	}
	return nil
}

func (w *pipelineWorkload) measure(ctx context.Context, d time.Duration) (*measured, error) {
	w.next.Store(0)
	w.byApp = [numApps][]float64{}
	return closedLoop(ctx, 1, d, &w.next, w.do), nil
}

func (w *pipelineWorkload) diskBytesPerRecord() (float64, error) {
	ev, err := dirBytes(w.evDir, "")
	if err != nil {
		return 0, err
	}
	tr, err := dirBytes(w.trDir, "")
	if err != nil {
		return 0, err
	}
	return float64(ev+tr) / float64(len(w.events)+len(w.trajs)), nil
}

func (w *pipelineWorkload) info() map[string]any {
	out := map[string]any{
		"events":       len(w.events),
		"trajectories": len(w.trajs),
		"distinct_ops": w.numOps(),
		"engine_slots": w.ctx.Slots(),
	}
	for app, ms := range w.byApp {
		if len(ms) > 0 {
			out["p50_ms_"+appNames[app]] = median(ms)
			out["p95_ms_"+appNames[app]] = percentile(ms, 0.95)
		}
	}
	return out
}

// ---- brute-force references over the generated records in memory ----

func refAnomaly(events []stdata.EventRec, win selection.Window) appResult {
	var r appResult
	for _, e := range events {
		if !eventMatches(e, win) {
			continue
		}
		r.Selected++
		if h := e.Time % 86400 / 3600; h >= anomalyLo || h < anomalyHi {
			r.Checksum++
		}
	}
	return r
}

func refHourlyFlow(events []stdata.EventRec, win selection.Window) appResult {
	slots := win.Time.Split(flowSlots)
	counts := make([]int64, len(slots))
	var r appResult
	for _, e := range events {
		if !eventMatches(e, win) {
			continue
		}
		r.Selected++
		for i, s := range slots {
			if e.Time >= s.Start && e.Time <= s.End {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		r.Checksum += float64(int64(i+1) * c)
	}
	return r
}

// cellSpan returns the inclusive index range of grid columns (or rows)
// that [lo, hi] can touch, widened by one cell each side: the exact
// segment test that follows decides, this only keeps it off far cells.
func cellSpan(lo, hi, origin, size float64, n int) (int, int) {
	a := int(math.Floor((lo-origin)/size)) - 1
	b := int(math.Floor((hi-origin)/size)) + 1
	return max(a, 0), min(b, n-1)
}

// segmentCells calls fn for every cell of grid the segment a-b passes
// through.
func segmentCells(grid instance.SpatialGrid, a, b geom.Point, fn func(cell int)) {
	cw := grid.Extent.Width() / float64(grid.NX)
	ch := grid.Extent.Height() / float64(grid.NY)
	ix0, ix1 := cellSpan(min(a.X, b.X), max(a.X, b.X), grid.Extent.MinX, cw, grid.NX)
	iy0, iy1 := cellSpan(min(a.Y, b.Y), max(a.Y, b.Y), grid.Extent.MinY, ch, grid.NY)
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			if geom.SegmentIntersectsBox(a, b, grid.Cell(ix, iy)) {
				fn(iy*grid.NX + ix)
			}
		}
	}
}

func refGridSpeed(trajs []stdata.TrajRec, win selection.Window) appResult {
	grid := speedGrid()
	sum := make([]float64, grid.NumCells())
	n := make([]int64, grid.NumCells())
	hit := make([]bool, grid.NumCells())
	var r appResult
	for _, t := range trajs {
		if !trajMatches(t, win) {
			continue
		}
		r.Selected++
		clear(hit)
		if len(t.Points) == 1 {
			segmentCells(grid, t.Points[0], t.Points[0], func(c int) { hit[c] = true })
		}
		for i := 1; i < len(t.Points); i++ {
			segmentCells(grid, t.Points[i-1], t.Points[i], func(c int) { hit[c] = true })
		}
		speed := t.ToTrajectory().AvgSpeedMps()
		for c, h := range hit {
			if h {
				sum[c] += speed
				n[c]++
			}
		}
	}
	for c := range sum {
		if n[c] > 0 {
			r.Checksum += round2(sum[c] / float64(n[c]) * 3.6)
		}
	}
	return r
}

func refTransition(trajs []stdata.TrajRec, win selection.Window) appResult {
	grid := transitionGrid(win)
	per := grid.Space.NumCells()
	slots := grid.Time.Slots()
	counts := make([]int64, grid.NumCells())
	hit := make([]bool, grid.NumCells())
	var r appResult
	for _, t := range trajs {
		if !trajMatches(t, win) {
			continue
		}
		r.Selected++
		clear(hit)
		mark := func(a, b geom.Point, span tempo.Duration) {
			for it, s := range slots {
				if s.Start > span.End || span.Start > s.End {
					continue
				}
				segmentCells(grid.Space, a, b, func(c int) { hit[it*per+c] = true })
			}
		}
		if len(t.Points) == 1 {
			mark(t.Points[0], t.Points[0], tempo.Instant(t.Times[0]))
		}
		for i := 1; i < len(t.Points); i++ {
			span := tempo.New(min(t.Times[i-1], t.Times[i]), max(t.Times[i-1], t.Times[i]))
			mark(t.Points[i-1], t.Points[i], span)
		}
		for c, h := range hit {
			if h {
				counts[c]++
			}
		}
	}
	for c, k := range counts {
		r.Checksum += float64(k) * cellWeight(c)
	}
	return r
}
