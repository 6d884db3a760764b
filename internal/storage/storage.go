// Package storage implements ST4ML's persistent partitioned store: the
// stand-in for Parquet-on-HDFS. A dataset is a directory of per-partition
// binary files (blocks of codec-encoded records, laid out as column
// streams) plus a metadata.json indexing every partition with its ST
// bounds — the on-disk indexing with metadata of §4.1. Every reader takes
// the columnar v3 layout only; a dataset holding files in the earlier v1
// or v2 layouts gets ErrLegacyFormat.
//
// The selection stage reads the metadata, prunes partitions whose bounds
// miss the query window, and loads only the survivors (Fig. 4).
package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/tempo"
)

// MetadataFile is the name of the partition index within a dataset
// directory.
const MetadataFile = "metadata.json"

// PartitionMeta describes one on-disk partition.
type PartitionMeta struct {
	// File is the partition file name relative to the dataset directory.
	File string `json:"file"`
	// Count is the number of records in the partition.
	Count int64 `json:"count"`
	// Bytes is the on-disk size of the partition file.
	Bytes int64 `json:"bytes"`
	// The partition's ST extent: spatial MBR and time endpoints.
	MinX   float64 `json:"minx"`
	MinY   float64 `json:"miny"`
	MaxX   float64 `json:"maxx"`
	MaxY   float64 `json:"maxy"`
	TStart int64   `json:"tstart"`
	TEnd   int64   `json:"tend"`
	// Format, when non-zero, overrides the dataset-level Version for this
	// partition's file. Compaction writes it on every rewrite, which is how
	// a dataset migrated from v1/v2 before their readers were dropped reads
	// as v3 while metadata.json keeps its old Version; delta files carry
	// the format they were appended in (absent means 2 — deltas predating
	// the columnar layout were always the v2 block layout).
	Format int `json:"format,omitempty"`
}

// setBounds records the union box as the partition's ST extent.
func (p *PartitionMeta) setBounds(bounds index.Box) {
	if bounds.IsEmpty() {
		return
	}
	s := bounds.Spatial()
	d := bounds.Temporal()
	p.MinX, p.MinY, p.MaxX, p.MaxY = s.MinX, s.MinY, s.MaxX, s.MaxY
	p.TStart, p.TEnd = d.Start, d.End
}

// Box returns the partition's ST extent as an index box.
func (p PartitionMeta) Box() index.Box {
	return index.Box3(
		geom.MBR{MinX: p.MinX, MinY: p.MinY, MaxX: p.MaxX, MaxY: p.MaxY},
		tempo.Duration{Start: p.TStart, End: p.TEnd})
}

// Metadata is the master-side index of a dataset: one entry per partition
// with its ST bounds, enabling partition pruning before any file is read.
type Metadata struct {
	Name string `json:"name"`
	// Version is the partition file format: 3 is the columnar block layout
	// of blockv3.go, the only one readers take. Absent or 1 (monolithic
	// files) and 2 (row-major gzip blocks) are the legacy layouts; a file
	// in one is refused with ErrLegacyFormat unless a manifest rewrite's
	// PartitionMeta.Format says it was rewritten as v3.
	Version int `json:"version,omitempty"`
	// BlockRecords is the records-per-block target the dataset was written
	// with (absent on v1, where appends and compactions take
	// DefaultBlockRecords).
	BlockRecords int             `json:"block_records,omitempty"`
	TotalCount   int64           `json:"total_count"`
	Partitions   []PartitionMeta `json:"partitions"`

	// Generation is the manifest generation this in-memory view was merged
	// at: 0 for a dataset with no delta layer, otherwise the monotonically
	// increasing counter bumped by every committed append or compaction.
	// It lives in manifest.json, never in metadata.json.
	Generation int64 `json:"-"`
	// NextSeq mirrors the manifest's next unused delta sequence number at
	// the time this view was merged (0 without a delta layer). Every
	// committed delta with Seq < NextSeq is part of this view — still live,
	// or folded into a rewritten base — which makes NextSeq the dedup fence
	// subscription snapshots carry: a pushed batch whose Seq is below the
	// fence is already in the snapshot.
	NextSeq int64 `json:"-"`
	// deltas[i] lists partition i's live delta files, merged in from the
	// manifest by ReadMetadata (nil when the dataset has none). Readers
	// union them with the base partition — merge-on-read.
	deltas [][]DeltaMeta
	// summaries maps partition id → its committed summary sidecar, merged
	// in from the manifest (nil when the dataset has none).
	summaries map[int]SummaryMeta
}

// NumPartitions returns the partition count.
func (m *Metadata) NumPartitions() int { return len(m.Partitions) }

// Deltas returns partition i's live deltas (nil when it has none).
func (m *Metadata) Deltas(i int) []DeltaMeta {
	if m.deltas == nil || i < 0 || i >= len(m.deltas) {
		return nil
	}
	return m.deltas[i]
}

// SummaryFor returns partition i's summary sidecar reference, if the
// manifest committed one for the partition's live base file. A stale
// entry — its Base superseded by a compaction that did not re-summarize —
// reports false, so the approximate path falls back to exact rather than
// estimating from a sidecar describing dead data.
func (m *Metadata) SummaryFor(i int) (SummaryMeta, bool) {
	if i < 0 || i >= len(m.Partitions) {
		return SummaryMeta{}, false
	}
	sm, ok := m.summaries[i]
	if !ok || sm.Base != m.Partitions[i].File {
		return SummaryMeta{}, false
	}
	return sm, true
}

// DeltaCount returns the total number of live deltas across the view.
func (m *Metadata) DeltaCount() int {
	n := 0
	for _, ds := range m.deltas {
		n += len(ds)
	}
	return n
}

// PartitionCount returns partition i's live record count: the base file
// plus every delta attached to it.
func (m *Metadata) PartitionCount(i int) int64 {
	n := m.Partitions[i].Count
	for _, d := range m.Deltas(i) {
		n += d.Count
	}
	return n
}

// PartitionBytes returns partition i's live on-disk size, deltas included.
func (m *Metadata) PartitionBytes(i int) int64 {
	n := m.Partitions[i].Bytes
	for _, d := range m.Deltas(i) {
		n += d.Bytes
	}
	return n
}

// Prune returns the ids of partitions whose ST bounds intersect the query
// window — the shortlist step of Fig. 4. A partition whose base extent
// misses the window survives if any of its deltas overlap it: delta bounds
// are part of the partition's live extent.
func (m *Metadata) Prune(space geom.MBR, dur tempo.Duration) []int {
	q := index.Box3(space, dur)
	out := make([]int, 0, len(m.Partitions))
	for i, p := range m.Partitions {
		keep := p.Count > 0 && p.Box().Intersects(q)
		if !keep {
			for _, d := range m.Deltas(i) {
				if d.Count > 0 && d.Box().Intersects(q) {
					keep = true
					break
				}
			}
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// WriteOptions tunes dataset writing.
type WriteOptions struct {
	// Name labels the dataset in its metadata.
	Name string
	// BlockRecords is the records-per-block target; 0 means
	// DefaultBlockRecordsV3.
	BlockRecords int
}

// Write persists partitioned records under dir in the current format
// (FormatVersion), computing per-partition ST bounds with boxOf, and
// returns the metadata it wrote. dir is created if missing; an existing
// metadata file is overwritten (a dataset rewrite), but stale partition
// files from a previous larger layout are not removed.
func Write[T any](
	dir string,
	c codec.Codec[T],
	parts [][]T,
	boxOf func(T) index.Box,
	opts WriteOptions,
) (*Metadata, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dataset dir: %w", err)
	}
	blockRecords := opts.BlockRecords
	if blockRecords <= 0 {
		blockRecords = DefaultBlockRecordsV3
	}
	meta := &Metadata{Name: opts.Name, Version: FormatVersion, BlockRecords: blockRecords}
	for i, part := range parts {
		pm, err := writePartitionV3(dir, partitionFileName(i), c, part, boxOf, blockRecords, false)
		if err != nil {
			return nil, err
		}
		meta.TotalCount += pm.Count
		meta.Partitions = append(meta.Partitions, pm)
	}
	if err := writeMetadata(dir, meta); err != nil {
		return nil, err
	}
	return meta, nil
}

func partitionFileName(i int) string { return fmt.Sprintf("part-%05d.stp", i) }

func writeMetadata(dir string, meta *Metadata) error {
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: marshal metadata: %w", err)
	}
	tmp := filepath.Join(dir, MetadataFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("storage: write metadata: %w", err)
	}
	return os.Rename(tmp, filepath.Join(dir, MetadataFile))
}

// ReadMetadata loads a dataset's partition index and merges the delta
// manifest into it when one exists: compacted partitions are replaced by
// their rewrites, live delta files attach to their partitions, and the
// total count reflects base plus deltas. The returned view is what every
// reader — selection, the serving catalog, the CLIs — sees, so the delta
// layer is merge-on-read everywhere without callers opting in.
func ReadMetadata(dir string) (*Metadata, error) {
	meta, _, err := readView(dir)
	return meta, err
}

// readView is ReadMetadata that also returns the manifest it merged, so a
// writer parses the manifest once per commit. The view holds copies of the
// manifest's entries: the writer may change mf without touching it.
func readView(dir string) (*Metadata, *Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, MetadataFile))
	if err != nil {
		return nil, nil, fmt.Errorf("storage: read metadata: %w", err)
	}
	var meta Metadata
	if err := json.Unmarshal(b, &meta); err != nil {
		return nil, nil, fmt.Errorf("storage: parse metadata: %w", err)
	}
	mf, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if err := meta.applyManifest(mf); err != nil {
		return nil, nil, err
	}
	return &meta, mf, nil
}

// applyManifest merges a manifest into the base metadata view, copying
// its entries by value.
func (m *Metadata) applyManifest(mf *Manifest) error {
	if mf == nil || mf.Generation == 0 {
		return nil
	}
	m.Generation = mf.Generation
	m.NextSeq = mf.NextSeq
	for i, pm := range mf.Rewrites {
		if i < 0 || i >= len(m.Partitions) {
			return fmt.Errorf("storage: manifest rewrites partition %d of %d", i, len(m.Partitions))
		}
		m.TotalCount += pm.Count - m.Partitions[i].Count
		m.Partitions[i] = pm
	}
	if len(mf.Summaries) > 0 {
		m.summaries = make(map[int]SummaryMeta, len(mf.Summaries))
		for i, sm := range mf.Summaries {
			if i < 0 || i >= len(m.Partitions) {
				return fmt.Errorf("storage: manifest summary for partition %d of %d",
					i, len(m.Partitions))
			}
			m.summaries[i] = sm
		}
	}
	if len(mf.Deltas) == 0 {
		return nil
	}
	m.deltas = make([][]DeltaMeta, len(m.Partitions))
	for _, d := range mf.Deltas {
		if d.Partition < 0 || d.Partition >= len(m.Partitions) {
			return fmt.Errorf("storage: manifest delta for partition %d of %d",
				d.Partition, len(m.Partitions))
		}
		m.deltas[d.Partition] = append(m.deltas[d.Partition], d)
		m.TotalCount += d.Count
	}
	return nil
}

// maxPartitionReadAttempts bounds re-reads of a partition file whose
// checksum verification failed — transient media errors recover, while a
// truly corrupt file fails every attempt and surfaces an error.
const maxPartitionReadAttempts = 3

// ReadStats reports what a partition read actually touched, so callers
// (selection stats, serve metrics, explain output) can account for
// block-level pruning: how many blocks the footer listed, how many were
// scanned versus skipped, and the on-disk versus decoded byte volume.
type ReadStats struct {
	// Blocks is the number of blocks in the partition file.
	Blocks int
	// BlocksScanned is how many blocks were read and decoded.
	BlocksScanned int
	// BlocksPruned is how many blocks the footer bounds let us skip.
	BlocksPruned int
	// BytesRead is the on-disk bytes actually read (header, scanned block
	// frames, footer, trailer).
	BytesRead int64
	// RawBytes is the payload bytes decoded: the decoded column bytes plus
	// each payload span read once — for point schemas only the surviving
	// records' spans, where the columnar predicate's saving shows up; for
	// extended schemas every span the extent test walks.
	RawBytes int64
	// RecordsPruned is how many records the per-record window test dropped
	// before materialization: point records on their decoded lon/lat/t
	// columns, extended records (trajectories) on the box their
	// Columnar.Extent computes. 0 on generic row-payload files, on schemas
	// with neither, and on full reads.
	RecordsPruned int64
	// Delta-layer accounting: how many deltas (manifest entries; two runs
	// of one shared file count two) the manifest attaches to the
	// partition, how many were read versus skipped entirely because their
	// manifest bounds miss every window, and the records they contributed.
	// Zero on datasets without a delta layer.
	DeltaFiles   int
	DeltasRead   int
	DeltasPruned int
	DeltaRecords int64
}

// Add folds another read's accounting into s — how a partition's live view
// sums its base read and its delta reads.
func (s *ReadStats) Add(o ReadStats) {
	s.Blocks += o.Blocks
	s.BlocksScanned += o.BlocksScanned
	s.BlocksPruned += o.BlocksPruned
	s.BytesRead += o.BytesRead
	s.RawBytes += o.RawBytes
	s.RecordsPruned += o.RecordsPruned
	s.DeltaFiles += o.DeltaFiles
	s.DeltasRead += o.DeltasRead
	s.DeltasPruned += o.DeltasPruned
	s.DeltaRecords += o.DeltaRecords
}

// ReadPartition decodes one partition's live view in full. Every block's
// CRC32C is verified before decoding and a file re-read a bounded number
// of times on mismatch; corruption is always reported, never silently
// decoded.
func ReadPartition[T any](dir string, meta *Metadata, i int, c codec.Codec[T]) ([]T, error) {
	out, _, err := ReadPartitionPruned(dir, meta, i, c, nil)
	return out, err
}

// ReadPartitionPruned decodes one partition, skipping blocks whose footer
// bounds intersect none of the windows — the intra-partition analogue of
// Metadata.Prune. The result is the live merge-on-read view: the base
// partition file followed by every delta file the manifest attaches to the
// partition, in manifest (append) order; delta files whose manifest bounds
// miss every window are skipped without being opened. A nil windows slice
// means read everything (and cross-check each segment's record count
// against its metadata, which a pruned read cannot do). Callers re-filter
// records either way, so pruning is purely an I/O and CPU saving, never a
// correctness dependency. A legacy base or delta file fails the read with
// ErrLegacyFormat.
func ReadPartitionPruned[T any](
	dir string, meta *Metadata, i int, c codec.Codec[T], windows []index.Box,
) ([]T, ReadStats, error) {
	out, st, err := readBase(dir, meta, i, c, windows, nil)
	if err != nil {
		return nil, ReadStats{}, err
	}
	for _, dm := range meta.Deltas(i) {
		if windows != nil && !boxIntersectsAny(dm.Box(), windows) {
			st.DeltaFiles++
			st.DeltasPruned++
			continue
		}
		drecs, dst, err := readDelta(dir, dm, c, windows)
		if err != nil {
			return nil, ReadStats{}, err
		}
		st.Add(dst)
		out = append(out, drecs...)
	}
	return out, st, nil
}

// ReadBase decodes partition i's base file alone, in full, without the
// delta files the manifest attaches to it — the immutable half of the live
// view, which the serving cache pins under the file's name so appends
// never evict it. It returns the file's records as read-side columns, not
// rows: every block's columns back to back in one ColBlock, the string
// attribute as indexes into one dictionary, and the payload in one stream
// (readColumnsV3Once); c.Col.Row or Rows rebuilds records from them. The
// codec must carry a columnar schema, which also splits a generic file's
// rows into the same columns. A non-nil boxOf also returns each record's
// box, in a slice parallel to the records (the boxes the serving cache
// pins an extended schema's run index over): a native file's with a
// Columnar.Extent from the extent, any other file's from boxOf. A nil
// boxOf returns nil boxes.
func ReadBase[T any](
	dir string, meta *Metadata, i int, c codec.Codec[T], boxOf func(T) index.Box,
) (*codec.ColBlock, []index.Box, ReadStats, error) {
	pm, err := meta.basePartition(dir, i)
	if err != nil {
		return nil, nil, ReadStats{}, err
	}
	var cols *codec.ColBlock
	var boxes []index.Box
	var st ReadStats
	err = readWithRetry(pm.File, func() (err error) {
		cols, boxes, st, err = readColumnsV3Once(dir, pm, blockRun{}, c, boxOf)
		return err
	})
	if err != nil {
		return nil, nil, ReadStats{}, err
	}
	return cols, boxes, st, nil
}

// readBase reads partition i's base file into records, pruning blocks
// against windows, or — when blockSet is non-nil — reading exactly the
// blocks it lists.
func readBase[T any](
	dir string, meta *Metadata, i int, c codec.Codec[T], windows []index.Box,
	blockSet map[int]bool,
) ([]T, ReadStats, error) {
	pm, err := meta.basePartition(dir, i)
	if err != nil {
		return nil, ReadStats{}, err
	}
	var recs []T
	var st ReadStats
	err = readWithRetry(pm.File, func() (err error) {
		recs, st, err = readPartitionV3Once[T](dir, pm, blockRun{}, c, windows, blockSet)
		return err
	})
	if err != nil {
		return nil, ReadStats{}, err
	}
	return recs, st, nil
}

// basePartition returns partition i's metadata entry, failing when i is
// out of range or its base file predates v3.
func (m *Metadata) basePartition(dir string, i int) (PartitionMeta, error) {
	if i < 0 || i >= len(m.Partitions) {
		return PartitionMeta{}, fmt.Errorf(
			"storage: partition %d out of range [0,%d)", i, len(m.Partitions))
	}
	pm := m.Partitions[i]
	return pm, checkFormat(dir, pm.File, m.partitionFormat(i))
}

// partitionFormat returns the file format of partition i's base file: its
// own Format when a compaction rewrote it, else the dataset's Version.
func (m *Metadata) partitionFormat(i int) int {
	if f := m.Partitions[i].Format; f != 0 {
		return f
	}
	return m.Version
}

// deltaFormat returns a delta file's format: absent means 2, because
// deltas committed before the columnar layout were always v2 blocks.
func deltaFormat(dm DeltaMeta) int {
	if dm.Format == 0 {
		return 2
	}
	return dm.Format
}

// ErrLegacyFormat reports a base or delta file stored in a layout older
// than v3, which no reader (compaction included) takes. Such a dataset is
// rebuilt from its source records; the error names the command that does.
type ErrLegacyFormat struct {
	// Dir is the dataset directory and File the legacy file within it.
	Dir, File string
	// Version is the file's format: 1 or 2.
	Version int
}

func (e ErrLegacyFormat) Error() string {
	return fmt.Sprintf("storage: %s is a v%d file and readers take v3 only; "+
		"re-ingest the dataset's source records into a new directory with "+
		"`stload -dataset <schema> -input <file.csv> -out <dir>`",
		filepath.Join(e.Dir, e.File), e.Version)
}

// checkFormat returns ErrLegacyFormat when file, stored in format version,
// predates v3.
func checkFormat(dir, file string, version int) error {
	if version >= FormatVersion {
		return nil
	}
	return ErrLegacyFormat{Dir: dir, File: file, Version: max(version, 1)}
}

// CheckFormat returns ErrLegacyFormat for the first base or delta file of
// the view that predates v3, or nil when every file is readable — the
// up-front check a server or a compaction runs before it touches the
// dataset at dir.
func (m *Metadata) CheckFormat(dir string) error {
	for i := range m.Partitions {
		if err := checkFormat(dir, m.Partitions[i].File, m.partitionFormat(i)); err != nil {
			return err
		}
		for _, dm := range m.Deltas(i) {
			if err := checkFormat(dir, dm.File, deltaFormat(dm)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadDelta decodes one committed delta in full — its run of blocks, or
// its whole file when it names no run — in file order: the unit the
// subscription notifier routes through its window index and the serving
// cache pins under DeltaMeta.Key. Like ReadBase it returns read-side
// columns and, for a non-nil boxOf, the records' boxes; their records
// equal, in order, the ones the merge-on-read path reads from the delta,
// so a pushed record is byte-identical to the same record surfaced by a
// batch query. The stats count one delta read.
func ReadDelta[T any](
	dir string, dm DeltaMeta, c codec.Codec[T], boxOf func(T) index.Box,
) (*codec.ColBlock, []index.Box, ReadStats, error) {
	if err := checkFormat(dir, dm.File, deltaFormat(dm)); err != nil {
		return nil, nil, ReadStats{}, err
	}
	var cols *codec.ColBlock
	var boxes []index.Box
	var st ReadStats
	err := readWithRetry(dm.File, func() (err error) {
		cols, boxes, st, err = readColumnsV3Once(dir, dm.PartitionMeta, dm.run(), c, boxOf)
		return err
	})
	if err != nil {
		return nil, nil, ReadStats{}, err
	}
	st.DeltaFiles, st.DeltasRead, st.DeltaRecords = 1, 1, int64(len(cols.IDs))
	return cols, boxes, st, nil
}

// readDelta decodes one delta into records, pruning its blocks against
// windows.
func readDelta[T any](
	dir string, dm DeltaMeta, c codec.Codec[T], windows []index.Box,
) ([]T, ReadStats, error) {
	if err := checkFormat(dir, dm.File, deltaFormat(dm)); err != nil {
		return nil, ReadStats{}, err
	}
	var recs []T
	var st ReadStats
	err := readWithRetry(dm.File, func() (err error) {
		recs, st, err = readPartitionV3Once[T](dir, dm.PartitionMeta, dm.run(), c, windows, nil)
		return err
	})
	if err != nil {
		return nil, ReadStats{}, err
	}
	st.DeltaFiles, st.DeltasRead, st.DeltaRecords = 1, 1, int64(len(recs))
	return recs, st, nil
}

// boxIntersectsAny reports whether b intersects at least one window.
func boxIntersectsAny(b index.Box, windows []index.Box) bool {
	for _, w := range windows {
		if b.Intersects(w) {
			return true
		}
	}
	return false
}

// readWithRetry re-runs read a bounded number of times while it fails with
// a checksum mismatch (see maxPartitionReadAttempts); other errors return
// immediately. read leaves its results with the caller, who keeps them
// only when readWithRetry returns nil.
func readWithRetry(file string, read func() error) error {
	var lastErr error
	for attempt := 0; attempt < maxPartitionReadAttempts; attempt++ {
		err := read()
		if err == nil {
			return nil
		}
		lastErr = err
		var ce codec.ErrCorrupt
		if !errors.As(err, &ce) {
			return err // I/O or structural error: retrying won't help
		}
	}
	return fmt.Errorf("storage: partition %s corrupt after %d reads: %w",
		file, maxPartitionReadAttempts, lastErr)
}
