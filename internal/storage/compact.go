package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"st4ml/internal/codec"
	"st4ml/internal/index"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

// CompactOptions tunes one compaction pass.
type CompactOptions struct {
	// MinDeltas is the size-tier trigger: only partitions carrying at least
	// this many delta files are rewritten (0 means 1 — any delta compacts).
	MinDeltas int
	// Tracer, when non-nil, records one trace.SpanCompact span per
	// rewritten partition.
	Tracer *trace.Tracer
	// GCGrace bounds garbage collection of obsolete files (superseded base
	// generations, folded-in deltas, orphans from crashed appends): only
	// files unreferenced by the committed manifest AND older than this are
	// removed, so readers holding the previous view keep their files.
	// Negative skips GC entirely.
	GCGrace time.Duration
	// Summarizer, when non-nil, builds a fresh summary sidecar for every
	// rewritten partition that had a live one (the approximate query
	// tier's maintenance path): the rewrite commits as a base+sidecar pair
	// under the same manifest swap. Partitions without a sidecar stay
	// without one. When nil, a rewritten partition's previous sidecar
	// entry is dropped — approximate queries on it fall back to exact
	// until a BuildSummaries backfill.
	Summarizer summary.Builder
}

// CompactStats reports what a compaction pass did.
type CompactStats struct {
	// PartitionsCompacted is how many base partitions were rewritten.
	PartitionsCompacted int `json:"partitions_compacted"`
	// DeltasMerged is how many delta files were folded into rewrites.
	DeltasMerged int `json:"deltas_merged"`
	// RecordsRewritten is the total record count of the rewritten files.
	RecordsRewritten int64 `json:"records_rewritten"`
	// BytesRewritten is the on-disk size of the files written.
	BytesRewritten int64 `json:"bytes_rewritten"`
	// FilesRemoved counts obsolete files the GC deleted.
	FilesRemoved int `json:"files_removed"`
	// Generation is the manifest generation after the pass (unchanged when
	// nothing compacted).
	Generation int64 `json:"generation"`
}

// Compact is the background compactor's one pass over the dataset at dir:
// every partition whose attached deltas meet the size-tier threshold is
// rewritten — base + deltas read whole, Z-order re-clustered, written as a
// fresh generation-suffixed v3 file — and the whole pass commits with a
// single atomic manifest swap that bumps the dataset generation. A dataset
// holding a legacy v1/v2 file is refused with ErrLegacyFormat before
// anything is written or collected. Readers are never blocked: the old
// base and delta files stay on disk until the grace-bounded GC collects
// them, so a reader holding the pre-compaction manifest keeps a complete,
// consistent view (MVCC with files). Queries before and after the swap
// return identical records; only the file layout changes.
//
// After a committing pass, OnCommit hooks for dir run outside the writer
// lock; a hook failure returns the pass's stats alongside a *HookError —
// the compaction is durable, only the notification failed.
func Compact[T any](
	dir string, c codec.Codec[T], boxOf func(T) index.Box, opts CompactOptions,
) (CompactStats, error) {
	st, committed, err := compactLocked(dir, c, boxOf, opts)
	if err != nil {
		return st, err
	}
	if committed {
		ev := CommitEvent{Dir: dir, Kind: CommitCompact, Generation: st.Generation}
		if herr := notifyCommit(ev); herr != nil {
			return st, herr
		}
	}
	return st, nil
}

// compactLocked does the pass under the directory writer lock and reports
// whether a manifest swap committed (GC-only passes do not notify).
func compactLocked[T any](
	dir string, c codec.Codec[T], boxOf func(T) index.Box, opts CompactOptions,
) (CompactStats, bool, error) {
	unlock := lockDir(dir)
	defer unlock()

	meta, mf, err := readView(dir)
	if err != nil {
		return CompactStats{}, false, err
	}
	if err := meta.CheckFormat(dir); err != nil {
		return CompactStats{}, false, err
	}
	st := CompactStats{Generation: mf.Generation}

	minDeltas := opts.MinDeltas
	if minDeltas <= 0 {
		minDeltas = 1
	}
	var targets []int
	for i := 0; i < meta.NumPartitions(); i++ {
		if len(meta.Deltas(i)) >= minDeltas {
			targets = append(targets, i)
		}
	}
	if len(targets) == 0 {
		if opts.GCGrace >= 0 {
			st.FilesRemoved, err = collectGarbage(dir, mf, opts.GCGrace)
		}
		return st, false, err
	}

	gen := mf.Generation + 1
	blockRecords := meta.BlockRecords
	if blockRecords <= 0 {
		blockRecords = DefaultBlockRecords
	}
	if mf.Rewrites == nil {
		mf.Rewrites = map[int]PartitionMeta{}
	}
	for _, pi := range targets {
		sp := opts.Tracer.StartSpan(0, trace.SpanCompact,
			trace.Int("partition", int64(pi)),
			trace.Int("deltas", int64(len(meta.Deltas(pi)))))
		recs, err := ReadPartition(dir, meta, pi, c)
		if err != nil {
			sp.End(trace.Str("error", err.Error()))
			return st, false, fmt.Errorf("storage: compact partition %d: %w", pi, err)
		}
		ZCluster(recs, boxOf)
		pm, err := writePartitionV3(dir, compactedFileName(pi, gen), c, recs, boxOf,
			blockRecords, true)
		if err != nil {
			sp.End(trace.Str("error", err.Error()))
			return st, false, fmt.Errorf("storage: compact partition %d: %w", pi, err)
		}
		pm.Format = FormatVersion
		mf.Rewrites[pi] = pm
		// The old sidecar described the old base file; drop it, and write
		// a fresh one for the rewrite when it was live and a summarizer is
		// wired in.
		_, summarized := meta.SummaryFor(pi)
		delete(mf.Summaries, pi)
		if summarized && opts.Summarizer != nil {
			bn := blockRecords
			if bn > maxBlockRecords {
				bn = maxBlockRecords // mirror the file writer's cap
			}
			ps, err := opts.Summarizer.Build(recs, bn)
			if err != nil {
				sp.End(trace.Str("error", err.Error()))
				return st, false, fmt.Errorf("storage: summarize partition %d: %w", pi, err)
			}
			sm, err := writeSummaryFile(dir, pm.File, ps)
			if err != nil {
				sp.End(trace.Str("error", err.Error()))
				return st, false, fmt.Errorf("storage: summarize partition %d: %w", pi, err)
			}
			mf.Summaries[pi] = sm // non-nil: it held pi's live entry
		}
		st.PartitionsCompacted++
		st.DeltasMerged += len(meta.Deltas(pi))
		st.RecordsRewritten += pm.Count
		st.BytesRewritten += pm.Bytes
		sp.End(trace.Int("records", pm.Count), trace.Int("bytes", pm.Bytes))
	}
	// Drop the folded-in deltas from the manifest.
	compacted := map[int]bool{}
	for _, pi := range targets {
		compacted[pi] = true
	}
	live := mf.Deltas[:0]
	for _, d := range mf.Deltas {
		if !compacted[d.Partition] {
			live = append(live, d)
		}
	}
	mf.Deltas = live
	crash("compact:base-written")
	mf.Generation = gen
	if err := writeManifest(dir, mf); err != nil {
		return st, false, err
	}
	st.Generation = gen
	crash("compact:swapped")

	if opts.GCGrace >= 0 {
		st.FilesRemoved, err = collectGarbage(dir, mf, opts.GCGrace)
		if err != nil {
			return st, true, err
		}
	}
	return st, true, nil
}

// collectGarbage removes partition/delta files that the committed
// manifest mf and metadata.json no longer reference and that are older
// than grace. The grace window is what keeps concurrently executing
// readers safe: they resolved their file set from a manifest committed
// strictly less than `grace` ago. A delta file shared by several deltas
// stays while any of them is live.
func collectGarbage(dir string, mf *Manifest, grace time.Duration) (int, error) {
	// Files named by the raw metadata.json stay referenced even when a
	// rewrite supersedes them in the merged view: metadata.json is never
	// rewritten by the delta layer, so GC deleting its files would leave a
	// dangling index if manifest.json were ever lost. Only superseded
	// rewrite generations, folded-in deltas, and crash orphans are eligible.
	raw, err := readRawMetadata(dir)
	if err != nil {
		return 0, fmt.Errorf("storage: gc: %w", err)
	}
	referenced := map[string]bool{}
	for _, p := range raw.Partitions {
		referenced[p.File] = true
	}
	for _, p := range mf.Rewrites {
		referenced[p.File] = true
	}
	for _, d := range mf.Deltas {
		referenced[d.File] = true
	}
	for _, sm := range mf.Summaries {
		referenced[sm.File] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("storage: gc: %w", err)
	}
	removed := 0
	now := time.Now()
	for _, e := range entries {
		name := e.Name()
		// Eligible: partition/delta files and summary sidecars. Sidecars of
		// superseded base generations become unreferenced the moment their
		// manifest entry is dropped or replaced, and age out like bases.
		ok := strings.HasSuffix(name, ".stp") || strings.HasSuffix(name, ".stp"+summary.Suffix)
		if e.IsDir() || referenced[name] || !ok {
			continue
		}
		if !strings.HasPrefix(name, "part-") && !strings.HasPrefix(name, "delta-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if now.Sub(info.ModTime()) < grace {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err == nil {
			removed++
		}
	}
	return removed, nil
}

// readRawMetadata loads metadata.json without the manifest merge.
func readRawMetadata(dir string) (*Metadata, error) {
	b, err := os.ReadFile(filepath.Join(dir, MetadataFile))
	if err != nil {
		return nil, err
	}
	var meta Metadata
	if err := json.Unmarshal(b, &meta); err != nil {
		return nil, err
	}
	return &meta, nil
}
