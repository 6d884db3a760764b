// Package selection implements ST4ML's Selection stage (§3.1): loading ST
// data from persistent storage into memory, filtering it against ST query
// windows (optionally through a per-partition run index built on the fly),
// and ST-repartitioning the survivors for balanced downstream stages.
//
// Two paths exist, matching the paper:
//
//   - Select: the native-Spark path — every partition is loaded and
//     filtered in parallel (Fig. 2).
//   - SelectPruned: the metadata path (§4.1, Fig. 4) — partition extents
//     from metadata.json are compared against the query first, and only
//     overlapping partitions are ever read from disk.
package selection

import (
	"fmt"
	"sync/atomic"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/partition"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
	"st4ml/internal/trace"
)

// Window is one ST query range.
type Window struct {
	Space geom.MBR
	Time  tempo.Duration
}

// Box returns the window as a 3-d query box.
func (w Window) Box() index.Box { return index.Box3(w.Space, w.Time) }

// Config tunes a Selector.
type Config struct {
	// Index filters each loaded partition through a run index (one box
	// per 16 consecutive records, index.Runs) instead of testing every
	// record against every window; false scans records linearly. Both
	// return the same records in the same order. On a pruned selection
	// the storage reader has already dropped the records whose box misses
	// every window — point records on their columns, trajectories on
	// their Columnar.Extent — so the filter mostly confirms.
	Index bool
	// Planner, when set, ST-repartitions the selected records (stage 2 of
	// Fig. 2). Nil keeps the storage partitioning.
	Planner partition.Planner
	// Duplicate routes a record into every overlapped partition during
	// repartitioning (needed by cross-instance extractors).
	Duplicate bool
	// SampleFrac is the planning sample fraction (0 = 1%).
	SampleFrac float64
	// Seed fixes sampling randomness.
	Seed int64
}

// Stats reports what a selection did — the measurements behind Fig. 5.
type Stats struct {
	TotalPartitions  int
	LoadedPartitions int
	LoadedRecords    int64
	LoadedBytes      int64
	SelectedRecords  int64
	// Block-granularity accounting: across the loaded partitions, how many
	// blocks existed, how many were decoded, how many the footer bounds let
	// the reader skip, and the payload volume actually decoded (the name
	// predates the columnar layout, which has no compression).
	BlocksTotal       int64
	BlocksScanned     int64
	BlocksPruned      int64
	DecompressedBytes int64
	// RecordsPruned counts records the storage reader dropped before
	// materialization — pruning one level finer than blocks: point records
	// on their decoded lon/lat/t columns, extended records (trajectories)
	// on their Columnar.Extent box. Zero on generic row-payload files and
	// on the full-scan Select.
	RecordsPruned int64
	// Delta-layer accounting (merge-on-read): across the loaded partitions,
	// how many delta files were unioned in, how many the manifest bounds let
	// the reader skip, and the records the read deltas contributed. All zero
	// on datasets without a delta layer.
	DeltaFiles   int64
	DeltasRead   int64
	DeltasPruned int64
	DeltaRecords int64
}

// Selector selects records of type T from an on-disk dataset.
type Selector[T any] struct {
	ctx   *engine.Context
	c     codec.Codec[T]
	boxOf func(T) index.Box
	// exact, when non-nil, refines the box-level test with exact geometry.
	exact func(T, geom.MBR, tempo.Duration) bool
	cfg   Config
}

// New builds a selector. boxOf extracts a record's ST box; exact (optional,
// may be nil) refines candidate records with exact geometry, e.g. a
// trajectory's per-segment test.
func New[T any](
	ctx *engine.Context,
	c codec.Codec[T],
	boxOf func(T) index.Box,
	exact func(T, geom.MBR, tempo.Duration) bool,
	cfg Config,
) *Selector[T] {
	return &Selector[T]{ctx: ctx, c: c, boxOf: boxOf, exact: exact, cfg: cfg}
}

// Select loads every partition of the dataset and filters in parallel (the
// native path of Fig. 2): stage 1 load+filter, stage 2 ST partitioning.
func (s *Selector[T]) Select(dir string, windows ...Window) (*engine.RDD[T], Stats, error) {
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		return nil, Stats{}, err
	}
	all := make([]int, meta.NumPartitions())
	for i := range all {
		all[i] = i
	}
	return s.selectPartitions(dir, meta, all, windows, false)
}

// SelectPruned consults the metadata index first and reads only partitions
// whose ST bounds overlap at least one window (§4.1, Fig. 4).
func (s *Selector[T]) SelectPruned(dir string, windows ...Window) (*engine.RDD[T], Stats, error) {
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		return nil, Stats{}, err
	}
	keepSet := map[int]bool{}
	for _, w := range windows {
		for _, id := range meta.Prune(w.Space, w.Time) {
			keepSet[id] = true
		}
	}
	keep := make([]int, 0, len(keepSet))
	for i := 0; i < meta.NumPartitions(); i++ {
		if keepSet[i] {
			keep = append(keep, i)
		}
	}
	return s.selectPartitions(dir, meta, keep, windows, true)
}

// selectPartitions runs the two selection stages over the given on-disk
// partition ids. blockPrune lets the storage layer additionally skip
// blocks whose footer bounds miss every window (SelectPruned's
// intra-partition extension of §4.1); the native Select path keeps it off
// so it stays an honest full-scan baseline. A dataset holding v1/v2 files
// fails up front with storage.ErrLegacyFormat rather than as a task panic
// per partition.
func (s *Selector[T]) selectPartitions(
	dir string, meta *storage.Metadata, ids []int, windows []Window, blockPrune bool,
) (*engine.RDD[T], Stats, error) {
	if err := meta.CheckFormat(dir); err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{
		TotalPartitions:  meta.NumPartitions(),
		LoadedPartitions: len(ids),
	}
	for _, id := range ids {
		stats.LoadedRecords += meta.PartitionCount(id)
		stats.LoadedBytes += meta.PartitionBytes(id)
	}
	sp := s.ctx.StartSpan(trace.SpanSelect,
		trace.Str("dataset", meta.Name),
		trace.Int("total_partitions", int64(stats.TotalPartitions)),
		trace.Int("kept_partitions", int64(stats.LoadedPartitions)),
		trace.Int("loaded_records", stats.LoadedRecords),
		trace.Int("loaded_bytes", stats.LoadedBytes))
	if len(ids) == 0 {
		sp.End(trace.Int("selected", 0))
		return engine.FromPartitions(s.ctx, "selected:empty", [][]T{}), stats, nil
	}

	// Stage 1: parallel load + parse + filter, traced under the select span.
	// Decoding errors surface as task panics; convert to an error at the
	// driver.
	var winBoxes []index.Box
	if blockPrune && len(windows) > 0 {
		winBoxes = make([]index.Box, len(windows))
		for i, w := range windows {
			winBoxes[i] = w.Box()
		}
	}
	// Block counters accumulate across concurrent load tasks; under
	// retries/speculation (off by default) an attempt may be counted twice,
	// same as the partition:read spans.
	var blocksTotal, blocksScanned, blocksPruned, rawBytes, recordsPruned atomic.Int64
	var deltaFiles, deltasRead, deltasPruned, deltaRecords atomic.Int64
	sctx := s.ctx.WithSpan(sp)
	loaded := engine.Generate(sctx, "load:"+meta.Name, len(ids), func(p int) []T {
		rsp := sctx.StartSpan(trace.SpanPartitionRead, trace.Int("partition", int64(ids[p])))
		recs, rst, err := storage.ReadPartitionPruned(dir, meta, ids[p], s.c, winBoxes)
		if err != nil {
			rsp.End(trace.Str("error", err.Error()))
			panic(err)
		}
		blocksTotal.Add(int64(rst.Blocks))
		blocksScanned.Add(int64(rst.BlocksScanned))
		blocksPruned.Add(int64(rst.BlocksPruned))
		rawBytes.Add(rst.RawBytes)
		recordsPruned.Add(rst.RecordsPruned)
		sctx.Metrics.AddBlockRead(int64(rst.BlocksScanned), int64(rst.BlocksPruned), rst.RawBytes)
		if rst.RecordsPruned > 0 {
			sctx.Metrics.AddRecordsPruned(rst.RecordsPruned)
		}
		if rst.DeltaFiles > 0 {
			// Merge-on-read happened: record it as its own span so Explain
			// can attribute the unioned files and records.
			deltaFiles.Add(int64(rst.DeltaFiles))
			deltasRead.Add(int64(rst.DeltasRead))
			deltasPruned.Add(int64(rst.DeltasPruned))
			deltaRecords.Add(rst.DeltaRecords)
			sctx.Metrics.AddDeltaRead(int64(rst.DeltasRead), rst.DeltaRecords)
			dsp := sctx.StartSpan(trace.SpanDeltaRead,
				trace.Int("partition", int64(ids[p])),
				trace.Int("files", int64(rst.DeltasRead)),
				trace.Int("pruned", int64(rst.DeltasPruned)),
				trace.Int("records", rst.DeltaRecords))
			dsp.End()
		}
		out := s.filterPartition(recs, windows)
		rsp.End(trace.Int("records", int64(len(recs))),
			trace.Int("bytes", meta.PartitionBytes(ids[p])),
			trace.Int("blocks", int64(rst.Blocks)),
			trace.Int("blocks_scanned", int64(rst.BlocksScanned)),
			trace.Int("blocks_pruned", int64(rst.BlocksPruned)),
			trace.Int("raw_bytes", rst.RawBytes),
			trace.Int("records_pruned", rst.RecordsPruned),
			trace.Int("selected", int64(len(out))))
		return out
	})
	selected, err := materialize(loaded)
	if err != nil {
		sp.End(trace.Str("error", err.Error()))
		return nil, stats, err
	}
	stats.SelectedRecords = selected.Count()
	stats.BlocksTotal = blocksTotal.Load()
	stats.BlocksScanned = blocksScanned.Load()
	stats.BlocksPruned = blocksPruned.Load()
	stats.DecompressedBytes = rawBytes.Load()
	stats.RecordsPruned = recordsPruned.Load()
	stats.DeltaFiles = deltaFiles.Load()
	stats.DeltasRead = deltasRead.Load()
	stats.DeltasPruned = deltasPruned.Load()
	stats.DeltaRecords = deltaRecords.Load()

	// Stage 2: ST partitioning for load balance (skipped without planner).
	if s.cfg.Planner != nil {
		repartitioned, _ := partition.ByPlanner(selected, s.c, s.boxOf, s.cfg.Planner,
			partition.Options{
				SampleFrac: s.cfg.SampleFrac,
				Seed:       s.cfg.Seed,
				Duplicate:  s.cfg.Duplicate,
			})
		selected = repartitioned
	}
	sp.End(trace.Int("selected", stats.SelectedRecords))
	return selected, stats, nil
}

// filterPartition applies the window predicate to one decoded partition,
// through the run index when configured: a record is kept once, in record
// order, when some window's box meets its box and exact (if set) accepts
// it for that window.
func (s *Selector[T]) filterPartition(recs []T, windows []Window) []T {
	if len(windows) == 0 {
		return recs
	}
	qs := make([]index.Box, len(windows))
	for i, w := range windows {
		qs[i] = w.Box()
	}
	keep := func(rec T, w int) bool {
		return s.exact == nil || s.exact(rec, windows[w].Space, windows[w].Time)
	}
	out := make([]T, 0, len(recs)/2)
	if !s.cfg.Index {
		for _, rec := range recs {
			b := s.boxOf(rec)
			for w, q := range qs {
				if b.Intersects(q) && keep(rec, w) {
					out = append(out, rec)
					break
				}
			}
		}
		return out
	}
	boxes := make([]index.Box, len(recs))
	for i, rec := range recs {
		boxes[i] = s.boxOf(rec)
	}
	index.NewRuns(boxes).Search(qs, func(i, w int) bool {
		if !keep(recs[i], w) {
			return false
		}
		out = append(out, recs[i])
		return true
	})
	return out
}

// materialize caches the RDD and converts a load-task panic (bad file,
// corrupt partition) into an error.
func materialize[T any](r *engine.RDD[T]) (rdd *engine.RDD[T], err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("selection: load failed: %v", rec)
		}
	}()
	cached := r.Cache()
	cached.Count() // force
	return cached, nil
}
