package stdata

import (
	"fmt"

	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

// This file is the approximate query tier's orchestration (see DESIGN.md
// "Approximate query tier"): per partition it loads the committed summary
// sidecar, classifies each file block against the window — pruned (bounds
// miss), certain (window contains bounds: exact count, certain digest),
// uncertain (straddling: grid envelope) or scanned (boundary blocks read
// exactly when requested) — folds live delta files in as exact records,
// and closes the partition scope so the partition-level multi-resolution
// grids can clamp the envelope. Partitions without a usable sidecar fall
// back to a transparent exact scan, flagged in the result and the explain
// tree. Every answer carries the containment guarantee the summary
// package's test wall pins: exact ∈ [estimate-bound, estimate+bound].

// ApproxRequest tunes one approximate aggregate query.
type ApproxRequest struct {
	// Agg selects the aggregate: summary.AggCount (default), AggHist, or
	// AggQuantile.
	Agg string
	// Q is the quantile in [0,1] (AggQuantile only).
	Q float64
	// Res is the histogram resolution in cells per axis (AggHist only).
	Res int
	// ScanBoundary reads blocks straddling the window boundary exactly
	// instead of bounding them from their grids — a tighter envelope for
	// more I/O.
	ScanBoundary bool
	// Partitions restricts the walk to exactly these partition ids — the
	// sub-query path of a cluster shard whose router already pruned. Nil
	// prunes locally from the window.
	Partitions []int
	// Partial returns the mergeable wire form instead of a finalized
	// result (cluster shards; the router merges and finalizes).
	Partial bool
}

func (s schema[T]) idOf() func(T) int64 {
	if s.spec.IDOf != nil {
		return s.spec.IDOf
	}
	return func(T) int64 { return 0 }
}

func (s schema[T]) BuildSummaries(dir string, cfg summary.Config) (int, error) {
	return storage.BuildSummaries(dir, s.spec.Codec, s.spec.BoxOf, s.spec.Value, s.idOf(), cfg)
}

func (s schema[T]) ApproxQuery(
	ctx *engine.Context, dir string, meta *storage.Metadata,
	w selection.Window, req ApproxRequest,
) (*summary.Result, *summary.Partial, error) {
	// A legacy store is refused up front, as by every other entry point,
	// rather than answered from its sidecars.
	if err := meta.CheckFormat(dir); err != nil {
		return nil, nil, err
	}
	spec := summary.Spec{Window: w.Box(), Agg: req.Agg, Q: req.Q, Res: req.Res}
	if err := spec.Validate(s.spec.Value != nil); err != nil {
		return nil, nil, err
	}
	acc := summary.NewAccumulator(spec)
	wb := spec.Window

	ids := req.Partitions
	if ids != nil {
		for _, id := range ids {
			if id < 0 || id >= meta.NumPartitions() {
				return nil, nil, fmt.Errorf("stdata: schema %s: approx partition %d out of range [0,%d)",
					s.spec.Name, id, meta.NumPartitions())
			}
		}
	} else {
		ids = meta.Prune(w.Space, w.Time)
	}

	sp := ctx.StartSpan(trace.SpanApprox,
		trace.Str("dataset", meta.Name),
		trace.Str("agg", acc.Spec().Agg),
		trace.Int("partitions", int64(len(ids))))
	sctx := ctx.WithSpan(sp)

	val := s.spec.Value
	if val == nil {
		val = func(T) (float64, bool) { return 0, false }
	}
	idOf := s.idOf()
	record := func(r T) {
		b := s.spec.BoxOf(r)
		if !b.Intersects(wb) {
			return
		}
		v, okv := val(r)
		acc.Record(b, v, okv, idOf(r))
	}

	for _, id := range ids {
		psp := sctx.StartSpan(trace.SpanApproxPart, trace.Int("partition", int64(id)))
		if err := s.approxPartition(acc, dir, meta, id, wb, req.ScanBoundary, record); err != nil {
			psp.End(trace.Str("error", err.Error()))
			sp.End(trace.Str("error", err.Error()))
			return nil, nil, err
		}
		pp, _ := acc.LastPart()
		psp.End(
			trace.Str("source", pp.Source),
			trace.Int("summary_blocks", pp.SummaryBlocks),
			trace.Int("scanned_blocks", pp.ScannedBlocks),
			trace.Int("scanned_records", pp.ScannedRecords))
	}

	if req.Partial {
		p := acc.Partial()
		sp.End(
			trace.Int("summary_blocks", p.SummaryBlocks),
			trace.Int("scanned_blocks", p.ScannedBlocks),
			trace.Int("scanned_records", p.ScannedRecords),
			trace.Bool("fallback", p.Fallback))
		ctx.Metrics.AddApprox(p.SummaryBlocks, p.ScannedBlocks, p.ScannedRecords)
		return nil, p, nil
	}
	res := acc.Finalize()
	sp.End(
		trace.Int("summary_blocks", res.SummaryBlocks),
		trace.Int("scanned_blocks", res.ScannedBlocks),
		trace.Int("scanned_records", res.ScannedRecords),
		trace.Bool("fallback", res.Fallback))
	ctx.Metrics.AddApprox(res.SummaryBlocks, res.ScannedBlocks, res.ScannedRecords)
	return res, nil, nil
}

// approxPartition folds one partition into the accumulator: sidecar-backed
// classification when a current sidecar exists, transparent exact fallback
// otherwise, plus the partition's live delta files either way.
func (s schema[T]) approxPartition(
	acc *summary.Accumulator, dir string, meta *storage.Metadata, id int,
	wb index.Box, scanBoundary bool, record func(T),
) error {
	sm, ok := meta.SummaryFor(id)
	if !ok {
		// No usable sidecar: transparent exact fallback over the live
		// merge-on-read view (base + deltas), flagged on the result.
		acc.Fallback()
		acc.BeginPartition(id)
		recs, rst, err := storage.ReadPartitionPruned(dir, meta, id, s.spec.Codec, []index.Box{wb})
		if err != nil {
			acc.EndPartition(nil)
			return err
		}
		acc.BlockScanned(rst.BlocksScanned + rst.DeltasRead)
		acc.AddBytesRead(rst.BytesRead)
		for _, r := range recs {
			record(r)
		}
		acc.EndPartition(nil)
		return nil
	}

	// A corrupt sidecar fails the query loudly — the tier never trades a
	// checksum violation for a silently skewed estimate.
	ps, err := storage.ReadSummary(dir, sm)
	if err != nil {
		return err
	}
	if ps.Count != meta.Partitions[id].Count {
		return fmt.Errorf("stdata: summary %s covers %d records, base has %d",
			sm.File, ps.Count, meta.Partitions[id].Count)
	}
	acc.AddBytesRead(sm.Bytes)

	acc.BeginPartition(id)
	var scanSet map[int]bool
	for bi := range ps.Blocks {
		bs := &ps.Blocks[bi]
		switch {
		case bs.Count == 0 || !bs.Bounds.Intersects(wb):
			// pruned: contributes nothing to any envelope
		case wb.Contains(bs.Bounds):
			acc.BlockCertain(bs)
		case scanBoundary:
			if scanSet == nil {
				scanSet = map[int]bool{}
			}
			scanSet[bi] = true
		default:
			acc.BlockUncertain(bs)
		}
	}
	if len(scanSet) > 0 {
		recs, rst, err := storage.ReadPartitionBlocks(dir, meta, id, s.spec.Codec, scanSet)
		if err != nil {
			acc.EndPartition(nil)
			return err
		}
		acc.BlockScanned(len(scanSet))
		acc.AddBytesRead(rst.BytesRead)
		for _, r := range recs {
			record(r)
		}
	}
	// Live deltas are not covered by the base sidecar: fold their records
	// in exactly. Scanned records in scope disable the partition-grid
	// clamp automatically (the grids describe base records only).
	for _, dm := range meta.Deltas(id) {
		if dm.Count == 0 || !dm.Box().Intersects(wb) {
			continue // manifest bounds prove no record can match
		}
		cols, _, _, err := storage.ReadDelta(dir, dm, s.spec.Codec, nil)
		if err != nil {
			acc.EndPartition(nil)
			return err
		}
		recs, err := s.spec.Codec.Col.Rows(cols)
		if err != nil {
			acc.EndPartition(nil)
			return err
		}
		acc.BlockScanned(1)
		acc.AddBytesRead(dm.Bytes)
		for _, r := range recs {
			record(r)
		}
	}
	acc.EndPartition(ps)
	return nil
}
