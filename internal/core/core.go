// Package core is the ST4ML public API: a Session that owns the execution
// engine and exposes the three-stage Selection–Conversion–Extraction
// pipeline over the standard on-disk schemas. The end-to-end flow mirrors
// the paper's §3.4 running example:
//
//	s := core.NewSession(engine.Config{})
//	sel := s.TrajSelector(selection.Config{Planner: partition.TSTR{GT: 10, GS: 10}})
//	recs, _, err := sel.SelectPruned(dataDir, core.Window(city, month))
//	trajs := core.TrajInstances(recs)
//	raster := convert.TrajToRaster(trajs, convert.RasterGridTarget(grid), convert.Auto, agg)
//	speeds, _ := extract.RasterSpeed(raster, extract.KMH)
//
// The generic machinery lives in the stage packages (selection, convert,
// extract); core binds them to the standard record types and owns session
// lifecycle.
package core

import (
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// Session owns one logical cluster and its metrics.
type Session struct {
	ctx *engine.Context
}

// NewSession starts a session over a simulated cluster.
func NewSession(cfg engine.Config) *Session {
	return &Session{ctx: engine.New(cfg)}
}

// Context exposes the underlying engine context for RDD-level programming
// (the paper's "native Spark operations" extension level).
func (s *Session) Context() *engine.Context { return s.ctx }

// Metrics returns a snapshot of the session's execution counters.
func (s *Session) Metrics() engine.Snapshot { return s.ctx.Metrics.Snapshot() }

// Window builds an ST query window.
func Window(space geom.MBR, dur tempo.Duration) selection.Window {
	return selection.Window{Space: space, Time: dur}
}

// EventSelector builds a selector over the standard event schema. Events
// filter exactly at box level (points), so no exact refinement is needed.
func (s *Session) EventSelector(cfg selection.Config) *selection.Selector[stdata.EventRec] {
	return selection.New(s.ctx, stdata.EventRecC, stdata.EventRec.Box, nil, cfg)
}

// TrajSelector builds a selector over the standard trajectory schema, with
// exact per-segment window refinement.
func (s *Session) TrajSelector(cfg selection.Config) *selection.Selector[stdata.TrajRec] {
	exact := func(tr stdata.TrajRec, space geom.MBR, dur tempo.Duration) bool {
		return tr.ToTrajectory().Intersects(space, dur)
	}
	return selection.New(s.ctx, stdata.TrajRecC, stdata.TrajRec.Box, exact, cfg)
}

// IngestEvents T-STR-partitions event records and persists them with
// metadata (the offline preparation of §4.1). planner defaults to
// TSTR(8,8) when nil.
func (s *Session) IngestEvents(
	recs []stdata.EventRec, dir string, planner partition.Planner, opts selection.IngestOptions,
) (*storage.Metadata, error) {
	if planner == nil {
		planner = partition.TSTR{GT: 8, GS: 8}
	}
	r := engine.Parallelize(s.ctx, recs, 0)
	return selection.Ingest(r, dir, stdata.EventRecC, stdata.EventRec.Box, planner, opts)
}

// IngestTrajs T-STR-partitions trajectory records and persists them.
func (s *Session) IngestTrajs(
	recs []stdata.TrajRec, dir string, planner partition.Planner, opts selection.IngestOptions,
) (*storage.Metadata, error) {
	if planner == nil {
		planner = partition.TSTR{GT: 8, GS: 8}
	}
	r := engine.Parallelize(s.ctx, recs, 0)
	return selection.Ingest(r, dir, stdata.TrajRecC, stdata.TrajRec.Box, planner, opts)
}

// EventInstances parses selected event records into instance RDDs — the
// parse step of the Selection stage's first Spark task (Fig. 2).
func EventInstances(r *engine.RDD[stdata.EventRec]) *engine.RDD[instance.Event[geom.Point, string, int64]] {
	return engine.Map(r, stdata.EventRec.ToEvent)
}

// TrajInstances parses selected trajectory records into instance RDDs.
func TrajInstances(r *engine.RDD[stdata.TrajRec]) *engine.RDD[instance.Trajectory[instance.Unit, int64]] {
	return engine.Map(r, stdata.TrajRec.ToTrajectory)
}

// POIInstances parses POI records into event instances.
func POIInstances(r *engine.RDD[stdata.POIRec]) *engine.RDD[instance.Event[geom.Point, string, int64]] {
	return engine.Map(r, stdata.POIRec.ToEvent)
}
