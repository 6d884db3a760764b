package storage

import (
	"fmt"
	"os"
	"path/filepath"

	"st4ml/internal/codec"
	"st4ml/internal/index"
	"st4ml/internal/summary"
)

// Summary sidecars are the storage half of the approximate query tier
// (see DESIGN.md "Approximate query tier"): each base partition file can
// carry a CRC-framed sidecar (<base>.sum) holding its per-block and
// per-partition ST sketches, built at compaction time (or on demand by
// BuildSummaries) and committed through the same atomic manifest swap as
// everything else in the delta layer. The manifest entry records which
// base file the sidecar describes, so a sidecar is valid exactly as long
// as its base generation is the live one — a compaction that rewrites a
// partition either writes a fresh pair or drops the entry, and readers of
// an older manifest keep the older pair (MVCC with files, same as bases).

// SummaryMeta references one partition's summary sidecar in the manifest.
type SummaryMeta struct {
	// File is the sidecar file name relative to the dataset directory.
	File string `json:"file"`
	// Base is the base partition file the sidecar describes. A summary is
	// only served while Base matches the partition's live base file.
	Base string `json:"base"`
	// Bytes is the sidecar's on-disk size.
	Bytes int64 `json:"bytes"`
	// Version is the sidecar format version (summary.Version).
	Version int `json:"version"`
}

// summaryFileName names the sidecar of a base partition file.
func summaryFileName(base string) string { return base + summary.Suffix }

// writeSummaryFile persists ps as base's sidecar via tmp+fsync+rename;
// like every delta-layer file it only becomes visible once a manifest
// referencing it commits.
func writeSummaryFile(dir, base string, ps *summary.PartitionSummary) (SummaryMeta, error) {
	enc := summary.EncodeSidecar(ps)
	name := summaryFileName(base)
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return SummaryMeta{}, fmt.Errorf("storage: write summary: %w", err)
	}
	if _, err := f.Write(enc); err != nil {
		f.Close()
		return SummaryMeta{}, fmt.Errorf("storage: write summary: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return SummaryMeta{}, fmt.Errorf("storage: sync summary: %w", err)
	}
	if err := f.Close(); err != nil {
		return SummaryMeta{}, fmt.Errorf("storage: close summary: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return SummaryMeta{}, fmt.Errorf("storage: commit summary: %w", err)
	}
	return SummaryMeta{File: name, Base: base, Bytes: int64(len(enc)), Version: ps.Version}, nil
}

// ReadSummary loads and verifies a partition's summary sidecar. Any
// corruption — flipped byte, truncation, trailing garbage — fails loudly;
// callers fall back to the exact path, never to a skewed estimate.
func ReadSummary(dir string, sm SummaryMeta) (*summary.PartitionSummary, error) {
	b, err := os.ReadFile(filepath.Join(dir, sm.File))
	if err != nil {
		return nil, fmt.Errorf("storage: read summary: %w", err)
	}
	ps, err := summary.DecodeSidecar(b)
	if err != nil {
		return nil, fmt.Errorf("storage: summary %s: %w", sm.File, err)
	}
	return ps, nil
}

// baseBlockRecords derives the records-per-block chunk size a base file
// was actually written with from its footer, so a summary built over the
// full record stream chunks on exactly the file's block boundaries.
// Returns 0 (single block) for single-block files and an error on a
// non-uniform layout no summary can mirror.
func baseBlockRecords(dir string, meta *Metadata, i int) (int, error) {
	pm := meta.Partitions[i]
	f, _, blocks, _, _, err := readFooterV3(filepath.Join(dir, pm.File))
	if err != nil {
		return 0, err
	}
	f.Close()
	if len(blocks) <= 1 {
		return 0, nil
	}
	bn := blocks[0].Count
	for _, bm := range blocks[:len(blocks)-1] {
		if bm.Count != bn {
			return 0, fmt.Errorf("storage: partition %s has non-uniform blocks", pm.File)
		}
	}
	if blocks[len(blocks)-1].Count > bn {
		return 0, fmt.Errorf("storage: partition %s has non-uniform blocks", pm.File)
	}
	return int(bn), nil
}

// ReadPartitionBlocks decodes only the base-file blocks whose indices are
// in want — the approximate path's boundary-block scan. Deltas are
// excluded: the approximate orchestration reads and folds them separately
// (they are not covered by the base sidecar).
func ReadPartitionBlocks[T any](
	dir string, meta *Metadata, i int, c codec.Codec[T], want map[int]bool,
) ([]T, ReadStats, error) {
	if len(want) == 0 && i >= 0 && i < len(meta.Partitions) {
		return nil, ReadStats{}, nil
	}
	// An out-of-range i falls through to readBase's range error.
	return readBase(dir, meta, i, c, nil, want)
}

// BuildSummaries builds and commits summary sidecars for every base
// partition that lacks a current one — the backfill path for datasets
// ingested before the approximate tier existed (stload -summaries) and
// for formats whose ingest never summarizes. Compaction keeps sidecars
// current afterwards via CompactOptions.Summarizer. A dataset holding
// legacy v1/v2 files fails the pass with ErrLegacyFormat. The
// pass commits with one atomic manifest swap bumping the dataset
// generation; it returns how many sidecars it built (0 means everything
// was already current and nothing committed).
func BuildSummaries[T any](
	dir string, c codec.Codec[T], boxOf func(T) index.Box,
	val func(T) (float64, bool), id func(T) int64, cfg summary.Config,
) (int, error) {
	unlock := lockDir(dir)
	defer unlock()

	meta, err := ReadMetadata(dir)
	if err != nil {
		return 0, err
	}
	if err := meta.CheckFormat(dir); err != nil {
		return 0, err
	}
	mf, err := ReadManifest(dir)
	if err != nil {
		return 0, err
	}
	built := 0
	for i := range meta.Partitions {
		pm := meta.Partitions[i]
		if sm, ok := mf.Summaries[i]; ok && sm.Base == pm.File {
			continue // current sidecar already committed
		}
		bn, err := baseBlockRecords(dir, meta, i)
		if err != nil {
			return built, err
		}
		recs, _, err := readBase(dir, meta, i, c, nil, nil)
		if err != nil {
			return built, err
		}
		ps := summary.Build(recs, boxOf, val, id, withBlockRecords(cfg, bn))
		sm, err := writeSummaryFile(dir, pm.File, ps)
		if err != nil {
			return built, err
		}
		if mf.Summaries == nil {
			mf.Summaries = map[int]SummaryMeta{}
		}
		mf.Summaries[i] = sm
		built++
	}
	if built == 0 {
		return 0, nil
	}
	mf.Generation++
	if err := writeManifest(dir, mf); err != nil {
		return built, err
	}
	return built, nil
}

// withBlockRecords overrides just the chunk size of a summary config.
func withBlockRecords(cfg summary.Config, bn int) summary.Config {
	cfg.BlockRecords = bn
	return cfg
}
