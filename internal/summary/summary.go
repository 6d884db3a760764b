// Package summary is the approximate query tier's sketch layer: per-block
// and per-partition spatio-temporal summaries (record counts, 3-d
// histograms at several resolutions, t-digests of a payload attribute,
// distinct-ID sketches) built at compaction/ingest time and persisted as a
// CRC-framed sidecar stream beside each base partition file.
//
// An approx=true query is answered from summaries alone: blocks whose
// bounds sit fully inside the window contribute their exact counts and
// "certain" digests; blocks straddling the window boundary contribute
// histogram-derived [lo, hi] envelopes and "uncertain" digests. Every
// envelope this package produces is deterministic and conservative — the
// exact answer always lies inside `estimate ± bound` — which is what the
// metamorphic test wall pins (see approx.go for the bound arguments).
//
// The package sits below storage: storage persists and loads sidecars and
// hooks the builder into compaction; stdata orchestrates the per-partition
// approximate scan; serve/cluster move Partial envelopes over the wire and
// merge them with mergeable-sketch semantics.
package summary

import (
	"fmt"

	"st4ml/internal/index"
)

// Version is the sidecar format version written by this package.
const Version = 1

// Suffix is appended to a base partition file name to form its sidecar
// name, so each base generation carries its own summary (MVCC-friendly:
// a compaction writes a new base + sidecar pair and old readers keep both).
const Suffix = ".sum"

// Config sizes the sketches a Builder produces. Zero values pick defaults
// tuned for ~1 byte of sidecar per record.
type Config struct {
	// BlockRecords chunks the partition's records in file order, mirroring
	// the base file's block layout so block summary i describes file block
	// i exactly. 0 means a single block.
	BlockRecords int
	// GridRes lists the partition-level histogram resolutions (cells per
	// axis). Nil means {4, 8}: coarse grids bound large windows, finer ones
	// small windows; per-block grids over tight block bounds do the fine
	// work, so partition grids stay coarse to keep sidecars a small
	// fraction of the data they sketch. Build skips any resolution whose
	// cell count exceeds the partition's record count (a grid finer than
	// the data adds bytes, not information).
	GridRes []int
	// BlockGridRes is the per-block histogram resolution. 0 means 4.
	BlockGridRes int
	// DigestSize / BlockDigestSize cap the centroid count of the partition
	// and per-block t-digests. 0 means 32 / 16.
	DigestSize      int
	BlockDigestSize int
	// SketchK / BlockSketchK size the distinct-ID KMV sketches. 0 means
	// 64 / 16.
	SketchK      int
	BlockSketchK int
}

func (c Config) withDefaults() Config {
	if c.GridRes == nil {
		c.GridRes = []int{4, 8}
	}
	if c.BlockGridRes <= 0 {
		c.BlockGridRes = 4
	}
	if c.DigestSize <= 0 {
		c.DigestSize = 32
	}
	if c.BlockDigestSize <= 0 {
		c.BlockDigestSize = 16
	}
	if c.SketchK <= 0 {
		c.SketchK = 64
	}
	if c.BlockSketchK <= 0 {
		c.BlockSketchK = 16
	}
	return c
}

// BlockSummary sketches one storage block: its exact record count and
// bounds (duplicating the file footer so the sidecar is self-contained),
// a histogram over the block's own bounds, and optional value/ID sketches.
type BlockSummary struct {
	Count    int64
	Bounds   index.Box
	Grid     *Grid
	Digest   *TDigest // nil when the schema has no value attribute
	Distinct *KMV
}

// PartitionSummary sketches one base partition file: partition-level
// multi-resolution histograms and sketches plus one BlockSummary per file
// block, in file order.
type PartitionSummary struct {
	Version      int
	BlockRecords int // chunk size the blocks were built with (0 = one block)
	Count        int64
	Bounds       index.Box
	HasValue     bool
	Grids        []*Grid
	Digest       *TDigest
	Distinct     *KMV
	Blocks       []BlockSummary
}

// Builder is the erased hook storage's compactor calls: it type-asserts
// the record slice it summarizes. NewBuilder builds one per schema.
type Builder interface {
	// Build summarizes recs (a []T) chunked into blocks of blockRecords
	// records in slice order, matching the base file writer's layout.
	Build(recs any, blockRecords int) (*PartitionSummary, error)
}

type builder[T any] struct {
	boxOf func(T) index.Box
	val   func(T) (float64, bool) // nil: schema has no value attribute
	id    func(T) int64
	cfg   Config
}

// NewBuilder wraps the schema's extractors into an erased Builder. val may
// be nil (no payload attribute: quantile queries are rejected for the
// schema, counts and histograms still work).
func NewBuilder[T any](boxOf func(T) index.Box, val func(T) (float64, bool), id func(T) int64, cfg Config) Builder {
	return builder[T]{boxOf: boxOf, val: val, id: id, cfg: cfg}
}

func (b builder[T]) Build(recs any, blockRecords int) (*PartitionSummary, error) {
	rs, ok := recs.([]T)
	if !ok {
		return nil, fmt.Errorf("summary: builder got %T, want %T", recs, []T(nil))
	}
	cfg := b.cfg
	cfg.BlockRecords = blockRecords
	return Build(rs, b.boxOf, b.val, b.id, cfg), nil
}

// Build summarizes recs chunked in slice order into blocks of
// cfg.BlockRecords records (the base file's layout).
func Build[T any](recs []T, boxOf func(T) index.Box, val func(T) (float64, bool), id func(T) int64, cfg Config) *PartitionSummary {
	cfg = cfg.withDefaults()
	ps := &PartitionSummary{
		Version:      Version,
		BlockRecords: cfg.BlockRecords,
		Count:        int64(len(recs)),
		Bounds:       index.EmptyBox(),
		HasValue:     val != nil,
	}
	boxes := make([]index.Box, len(recs))
	for i, r := range recs {
		boxes[i] = boxOf(r)
		ps.Bounds = ps.Bounds.Union(boxes[i])
	}
	for i, res := range cfg.GridRes {
		if i > 0 && res*res*res > len(recs) {
			continue // finer than the data: all bytes, no tighter bound
		}
		ps.Grids = append(ps.Grids, NewGrid(ps.Bounds, res))
	}
	if ps.HasValue {
		ps.Digest = NewTDigest(cfg.DigestSize)
	}
	ps.Distinct = NewKMV(cfg.SketchK)

	bn := cfg.BlockRecords
	if bn <= 0 || bn > len(recs) {
		bn = len(recs)
	}
	for off := 0; off < len(recs); off += bn {
		end := off + bn
		if end > len(recs) {
			end = len(recs)
		}
		bs := BlockSummary{
			Count:    int64(end - off),
			Bounds:   index.EmptyBox(),
			Distinct: NewKMV(cfg.BlockSketchK),
		}
		if ps.HasValue {
			bs.Digest = NewTDigest(cfg.BlockDigestSize)
		}
		for i := off; i < end; i++ {
			bs.Bounds = bs.Bounds.Union(boxes[i])
		}
		bs.Grid = NewGrid(bs.Bounds, cfg.BlockGridRes)
		for i := off; i < end; i++ {
			bs.Grid.Add(boxes[i])
			bs.Distinct.Add(id(recs[i]))
			ps.Distinct.Add(id(recs[i]))
			for _, g := range ps.Grids {
				g.Add(boxes[i])
			}
			if ps.HasValue {
				if v, ok := val(recs[i]); ok {
					bs.Digest.Add(v)
					ps.Digest.Add(v)
				}
			}
		}
		bs.Digest.Compact()
		ps.Blocks = append(ps.Blocks, bs)
	}
	ps.Digest.Compact()
	if len(recs) == 0 {
		// An empty partition still gets a well-formed (empty) summary.
		ps.Blocks = nil
	}
	return ps
}
