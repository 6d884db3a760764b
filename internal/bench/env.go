// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5–§6) against the synthetic corpora:
// Fig. 5 (selection with on-disk metadata), Fig. 6 (conversion
// optimization), Table 5 (load balance), Table 6 (T-STR vs 2-d STR), Fig. 7
// (eight end-to-end applications on three systems), Table 8 (lines of
// code), Fig. 9 and Table 9 (case studies). See DESIGN.md's per-experiment
// index. Absolute numbers differ from the paper (simulated cluster,
// laptop-scale data); the harness reports the shapes EXPERIMENTS.md
// verifies.
package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"st4ml/internal/baseline"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/tempo"
)

// Scale sizes the synthetic corpora. Defaults (zero value) are laptop-sized.
type Scale struct {
	Events int // NYC-like events
	Trajs  int // Porto-like trajectories (after enlargement)
	POIs   int
	Areas  int
	AirSta int // air stations before replication
}

// withDefaults fills zero fields.
func (s Scale) withDefaults() Scale {
	if s.Events == 0 {
		s.Events = 200_000
	}
	if s.Trajs == 0 {
		s.Trajs = 20_000
	}
	if s.POIs == 0 {
		s.POIs = 100_000
	}
	if s.Areas == 0 {
		s.Areas = 400
	}
	if s.AirSta == 0 {
		s.AirSta = 40
	}
	return s
}

// Env holds one prepared benchmark environment: generated corpora and the
// per-system on-disk stores.
type Env struct {
	Ctx   *engine.Context
	Scale Scale

	Events []stdata.EventRec
	Trajs  []stdata.TrajRec
	Air    []stdata.AirRec
	POIs   []stdata.POIRec
	Areas  []stdata.AreaRec

	// ST4ML T-STR-partitioned stores with metadata.
	EventDir, TrajDir string
	// Baseline flat feature stores (GeoSpark loads these wholesale).
	GSEventDir, GSTrajDir string
	// GeoMesa Z-ordered stores.
	GMEventDir, GMTrajDir string
	// Opened GeoMesa stores (manifest built once at setup, as a persisted
	// index would be).
	GMEvents, GMTrajs *baseline.GeoMesa
}

// NewEnv generates corpora at the scale and ingests every store under
// baseDir. Deterministic for a fixed scale.
func NewEnv(ctx *engine.Context, baseDir string, scale Scale) (*Env, error) {
	scale = scale.withDefaults()
	e := &Env{Ctx: ctx, Scale: scale}
	e.Events = datagen.NYC(scale.Events, 1)
	base := datagen.Porto(scale.Trajs/4+1, 2)
	e.Trajs = datagen.Enlarge(base, 4, 20, 120, 3)[:scale.Trajs]
	e.Air = datagen.Air(scale.AirSta, 4, 7, 1800, 4)
	e.POIs, e.Areas = datagen.OSM(scale.POIs, scale.Areas, 5)

	e.EventDir = filepath.Join(baseDir, "st4ml-events")
	e.TrajDir = filepath.Join(baseDir, "st4ml-trajs")
	e.GSEventDir = filepath.Join(baseDir, "gs-events")
	e.GSTrajDir = filepath.Join(baseDir, "gs-trajs")
	e.GMEventDir = filepath.Join(baseDir, "gm-events")
	e.GMTrajDir = filepath.Join(baseDir, "gm-trajs")

	if err := os.MkdirAll(baseDir, 0o755); err != nil {
		return nil, err
	}
	// ST4ML stores: T-STR partitioned with metadata.
	evRDD := engine.Parallelize(ctx, e.Events, 0)
	// 512-record blocks give each ~2k-record partition a handful of blocks,
	// so the footer bounds have something to prune inside loaded
	// partitions at small query ranges.
	if _, err := selection.Ingest(evRDD, e.EventDir, stdata.EventRecC, stdata.EventRec.Box,
		partition.TSTR{GT: 12, GS: 8},
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.05, Seed: 1, BlockRecords: 512}); err != nil {
		return nil, fmt.Errorf("ingest events: %w", err)
	}
	trRDD := engine.Parallelize(ctx, e.Trajs, 0)
	if _, err := selection.Ingest(trRDD, e.TrajDir, stdata.TrajRecC, stdata.TrajRec.Box,
		partition.TSTR{GT: 12, GS: 8},
		selection.IngestOptions{Name: "porto", SampleFrac: 0.05, Seed: 2, BlockRecords: 512}); err != nil {
		return nil, fmt.Errorf("ingest trajs: %w", err)
	}
	// GeoSpark stores: flat, unindexed.
	if _, err := baseline.IngestEventsToDisk(ctx, e.Events, e.GSEventDir, 2*ctx.Slots()); err != nil {
		return nil, fmt.Errorf("ingest gs events: %w", err)
	}
	if _, err := baseline.IngestTrajsToDisk(ctx, e.Trajs, e.GSTrajDir, 2*ctx.Slots()); err != nil {
		return nil, fmt.Errorf("ingest gs trajs: %w", err)
	}
	// GeoMesa stores: Z3-ordered chunks.
	evFeats := make([]baseline.Feature, len(e.Events))
	for i, ev := range e.Events {
		evFeats[i] = baseline.FromEventRec(ev)
	}
	if err := baseline.GeoMesaIngest(ctx, evFeats, e.GMEventDir,
		datagen.NYCExtent, datagen.Year2013, 8, 7*86400, 4096); err != nil {
		return nil, fmt.Errorf("ingest gm events: %w", err)
	}
	trFeats := make([]baseline.Feature, len(e.Trajs))
	for i, tr := range e.Trajs {
		trFeats[i] = baseline.FromTrajRec(tr)
	}
	if err := baseline.GeoMesaIngest(ctx, trFeats, e.GMTrajDir,
		datagen.PortoExtent, datagen.Year2013, 8, 7*86400, 4096); err != nil {
		return nil, fmt.Errorf("ingest gm trajs: %w", err)
	}
	var err error
	e.GMEvents, err = baseline.OpenGeoMesa(ctx, e.GMEventDir,
		datagen.NYCExtent, datagen.Year2013, 8, 7*86400)
	if err != nil {
		return nil, fmt.Errorf("open gm events: %w", err)
	}
	e.GMTrajs, err = baseline.OpenGeoMesa(ctx, e.GMTrajDir,
		datagen.PortoExtent, datagen.Year2013, 8, 7*86400)
	if err != nil {
		return nil, fmt.Errorf("open gm trajs: %w", err)
	}
	return e, nil
}

// RandomWindows generates n deterministic ST query windows, each covering
// frac of the extent's width/height and frac of the window's span.
func RandomWindows(extent geom.MBR, window tempo.Duration, frac float64, n int, seed int64) []selection.Window {
	return RandomWindowsST(extent, window, frac, frac, n, seed)
}

// RandomWindowsST generates windows with independent spatial and temporal
// fractions — e.g. the broad-space, weekly-time selection shape of §4.1.
func RandomWindowsST(extent geom.MBR, window tempo.Duration, sfrac, tfrac float64, n int, seed int64) []selection.Window {
	rng := rand.New(rand.NewSource(seed))
	out := make([]selection.Window, n)
	w := extent.Width() * sfrac
	h := extent.Height() * sfrac
	span := int64(float64(window.Seconds()) * tfrac)
	for i := range out {
		x := extent.MinX + rng.Float64()*(extent.Width()-w)
		y := extent.MinY + rng.Float64()*(extent.Height()-h)
		t := window.Start + rng.Int63n(max64(1, window.Seconds()-span))
		out[i] = selection.Window{
			Space: geom.Box(x, y, x+w, y+h),
			Time:  tempo.New(t, t+span),
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
