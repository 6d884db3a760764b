package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// The delta layer turns the rebuild-the-world store into a continuously
// ingesting one (see DESIGN.md "Delta layer & compaction"). New records are
// not merged into the base partition files; each is routed to the base
// partition whose extent it enlarges least, and an append lands in one
// small immutable delta file (the current block layout, CRC-framed) with
// one Z-order clustered run of blocks per partition. A manifest file —
// swapped atomically via tmp+rename — records which deltas are live.
// Readers union base + manifest-listed deltas (merge-on-read); a
// background compactor folds deltas back into rewritten base files and
// swaps the manifest again. The manifest rename is the single commit point
// of both operations:
//
//   - a delta file (or compacted base file) that exists on disk but is not
//     referenced by the manifest is invisible — a crash between file write
//     and manifest swap loses nothing the ingester had been acked for and
//     duplicates nothing a reader can see;
//   - appends carry an optional batch id recorded in the manifest, so an
//     ingester that crashes after the swap but before acking its source can
//     replay the batch and have it recognized as already committed —
//     exactly-once, the same commit-or-retry discipline as the engine's
//     task protocol.
//
// Writers (append, compact) of one dataset directory serialize on an
// in-process lock; running multiple writer processes against one directory
// is not supported (readers are always safe).

// ManifestFile is the name of the delta manifest within a dataset
// directory. Absence means the dataset has no delta layer (generation 0).
const ManifestFile = "manifest.json"

// DeltaMeta describes one live delta: which base partition it extends,
// the usual partition accounting (file, count, bytes, ST bounds), and the
// run of blocks within the file that holds its records. An append writes
// one file for all the partitions it routes to, each partition's records
// a run of blocks of their own; a delta committed before shared files
// names no run and owns its whole file.
type DeltaMeta struct {
	// Partition is the base partition this delta extends.
	Partition int `json:"partition"`
	// Seq is the delta's unique, monotonically increasing sequence number.
	Seq int64 `json:"seq"`
	// PartitionMeta's Bytes is the stored bytes of the delta's run of
	// blocks — the file's size when the delta owns the whole file.
	PartitionMeta
	// FirstBlock and NumBlocks name the delta's run in the file's block
	// index; NumBlocks 0 means the whole file.
	FirstBlock int `json:"first_block,omitempty"`
	NumBlocks  int `json:"num_blocks,omitempty"`
}

// Key names the delta's records uniquely among every delta of a dataset:
// its file, plus its run when it shares the file with other deltas.
func (d DeltaMeta) Key() string {
	if d.NumBlocks == 0 {
		return d.File
	}
	return d.File + "#" + strconv.Itoa(d.FirstBlock) + "+" + strconv.Itoa(d.NumBlocks)
}

// blockRun is a run of num blocks from first in a file's block index; the
// zero run is the whole file.
type blockRun struct{ first, num int }

func (d DeltaMeta) run() blockRun { return blockRun{first: d.FirstBlock, num: d.NumBlocks} }

// of narrows a file's block index to the run and checks that the run holds
// pm.Count records. A run the index does not hold — negative, empty, past
// its end, or wrapping — is corruption, as is a count mismatch.
func (r blockRun) of(blocks []BlockMeta, pm PartitionMeta, footerOff int64) ([]BlockMeta, error) {
	if r.first < 0 || r.num <= 0 || r.first > len(blocks) || r.num > len(blocks)-r.first {
		return nil, fmt.Errorf("storage: delta %s names blocks [%d,+%d) of %d: %w",
			pm.File, r.first, r.num, len(blocks), codec.ErrCorrupt{Off: int(footerOff)})
	}
	blocks = blocks[r.first : r.first+r.num]
	var n int64
	for _, bm := range blocks {
		n += bm.Count
	}
	if n != pm.Count {
		return nil, fmt.Errorf("storage: delta %s blocks [%d,+%d) count %d records, manifest says %d: %w",
			pm.File, r.first, r.num, n, pm.Count, codec.ErrCorrupt{Off: int(footerOff)})
	}
	return blocks, nil
}

// Manifest is the delta layer's commit record: the dataset generation,
// compaction rewrites, and the set of live delta files. It is always
// written to a temp file and renamed into place, so readers see either the
// old or the new version, never a torn one.
type Manifest struct {
	// Generation increments on every committed append or compaction. The
	// serving catalog revalidates on it (mtime alone misses in-place
	// rewrites within one timestamp granule).
	Generation int64 `json:"generation"`
	// NextSeq is the next unused delta sequence number.
	NextSeq int64 `json:"next_seq"`
	// Rewrites maps partition id → the compacted base file that replaces
	// the metadata.json entry for that partition.
	Rewrites map[int]PartitionMeta `json:"rewrites,omitempty"`
	// Deltas lists the live delta files in append order.
	Deltas []DeltaMeta `json:"deltas,omitempty"`
	// Summaries maps partition id → its summary sidecar (approximate query
	// tier). An entry is only served while its Base matches the
	// partition's live base file, so compactions that rewrite a partition
	// without re-summarizing leave a harmlessly stale entry, never a
	// wrong estimate.
	Summaries map[int]SummaryMeta `json:"summaries,omitempty"`
	// AppliedBatches holds the most recent ingest batch ids (bounded at
	// maxAppliedBatches); an AppendDelta carrying one of them is a retry of
	// a committed batch and becomes a no-op.
	AppliedBatches []string `json:"applied_batches,omitempty"`
}

// maxAppliedBatches bounds the manifest's batch-id memory. An ingester
// replays at most the batches since its last ack, which is far fewer.
const maxAppliedBatches = 256

// applied reports whether batch id is recorded as committed.
func (mf *Manifest) applied(id string) bool {
	for _, b := range mf.AppliedBatches {
		if b == id {
			return true
		}
	}
	return false
}

// noteBatch records a committed batch id, aging out the oldest.
func (mf *Manifest) noteBatch(id string) {
	if id == "" {
		return
	}
	mf.AppliedBatches = append(mf.AppliedBatches, id)
	if len(mf.AppliedBatches) > maxAppliedBatches {
		mf.AppliedBatches = append(mf.AppliedBatches[:0],
			mf.AppliedBatches[len(mf.AppliedBatches)-maxAppliedBatches:]...)
	}
}

// ReadManifest loads the dataset's delta manifest. A missing file is not
// an error: it returns an empty manifest at generation 0.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if os.IsNotExist(err) {
		return &Manifest{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read manifest: %w", err)
	}
	var mf Manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		return nil, fmt.Errorf("storage: parse manifest: %w", err)
	}
	return &mf, nil
}

// ManifestGeneration returns the dataset's current manifest generation
// (0 when it has no manifest) — the revalidation probe the serving catalog
// runs on every query. It reads only the manifest's head: writeManifest
// writes the generation as the first field of an indented object, and the
// rename commit means an open manifest is always one whole version, so
// `{\n  "generation": <digits>,` at the start of the file names the
// generation of the manifest the next ReadManifest would parse. Any other
// head — another layout, a short or cut file, digits that are not a
// canonical int64 — falls back to parsing the whole manifest, whose cost
// grows with the deltas appended since the last compaction. A corrupt body
// behind a valid head is not seen here; it fails the ReadMetadata that a
// changed generation leads to.
func ManifestGeneration(dir string) (int64, error) {
	f, err := os.Open(filepath.Join(dir, ManifestFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: read manifest: %w", err)
	}
	// A short read only sends the probe down the full parse.
	var head [manifestHeadBytes]byte
	n, _ := f.Read(head[:])
	f.Close()
	if gen, ok := parseManifestHead(head[:n]); ok {
		return gen, nil
	}
	mf, err := ReadManifest(dir)
	if err != nil {
		return 0, err
	}
	return mf.Generation, nil
}

// manifestHead is how json.MarshalIndent(mf, "", "  ") opens a manifest;
// manifestHeadBytes holds it with 19 digits (MaxInt64) and the comma.
const (
	manifestHead      = "{\n  \"generation\": "
	manifestHeadBytes = 64
)

// parseManifestHead returns the generation in a manifest head b when b
// starts with manifestHead and a JSON integer that fits an int64 — digits
// with no leading zero — followed by a comma.
func parseManifestHead(b []byte) (int64, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(manifestHead))
	if !ok {
		return 0, false
	}
	digits, _, ok := bytes.Cut(rest, []byte{','})
	if !ok || len(digits) == 0 || digits[0] < '0' || digits[0] > '9' || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	gen, err := strconv.ParseInt(string(digits), 10, 64)
	return gen, err == nil
}

// writeManifest commits mf: marshal to a temp file, fsync, rename over
// ManifestFile. The rename is the commit point of the delta layer.
func writeManifest(dir string, mf *Manifest) error {
	b, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return fmt.Errorf("storage: marshal manifest: %w", err)
	}
	tmp := filepath.Join(dir, ManifestFile+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("storage: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: close manifest: %w", err)
	}
	crash("manifest:tmp")
	if err := os.Rename(tmp, filepath.Join(dir, ManifestFile)); err != nil {
		return fmt.Errorf("storage: commit manifest: %w", err)
	}
	return nil
}

// crashHook, when non-nil, is invoked at every labeled injection point of
// the append/compact protocols. The chaos suite sets it to panic mid-
// operation and then proves no committed record was lost or duplicated.
// Production leaves it nil.
var crashHook func(point string)

func crash(point string) {
	if crashHook != nil {
		crashHook(point)
	}
}

// dirLocks serializes writers (append, compact) per dataset directory
// within this process.
var dirLocks sync.Map // string → *sync.Mutex

func lockDir(dir string) func() {
	mu, _ := dirLocks.LoadOrStore(filepath.Clean(dir), &sync.Mutex{})
	m := mu.(*sync.Mutex)
	m.Lock()
	return m.Unlock
}

// AppendOptions tunes one delta append.
type AppendOptions struct {
	// BatchID, when non-empty, identifies the ingest batch for exactly-once
	// retry: appending a batch whose id the manifest already records is a
	// no-op returning the current manifest.
	BatchID string
}

// appendFileName names the delta file of an append whose first delta has
// sequence seq. Deltas committed before shared files are named
// delta-PPPPP-SSSSSSSS.stp after their partition and sequence; readers
// take either name from the manifest.
func appendFileName(seq int64) string {
	return fmt.Sprintf("delta-%08d.stp", seq)
}

// compactedFileName names partition pi's base rewrite at generation gen.
// Generation-suffixed names (never rename-over) are what let a reader
// holding the previous manifest keep reading the previous base file while
// a compaction commits — MVCC with files.
func compactedFileName(pi int, gen int64) string {
	return fmt.Sprintf("part-%05d-g%06d.stp", pi, gen)
}

// AppendDelta appends recs to the live dataset at dir without rewriting
// any base file: records are routed to the base partition whose ST extent
// they enlarge least, and the partitions' groups, in ascending partition
// id and each Z-order clustered, are written into one delta file in the
// current (v3 columnar) block layout, one run of blocks per group. The
// file is fsynced and committed by an atomic manifest swap that bumps the
// dataset generation and lists one DeltaMeta per group, so an append costs
// one file create and two fsyncs (delta file, manifest) however many
// partitions it touches. Readers that load metadata after the swap see
// the new records; readers that loaded before keep a consistent
// pre-append view. Concurrent appends and compactions of one directory
// serialize in-process; see the package comment on delta.go for the
// crash-safety argument. A dataset holding a legacy v1/v2 file is refused
// with ErrLegacyFormat before anything is written.
//
// After the swap, OnCommit hooks for dir run outside the writer lock; a
// hook failure returns the committed manifest alongside a *HookError — the
// append is durable, only the notification failed.
func AppendDelta[T any](
	dir string, c codec.Codec[T], recs []T, boxOf func(T) index.Box, opts AppendOptions,
) (*Manifest, error) {
	mf, ev, err := appendDeltaLocked(dir, c, recs, boxOf, opts)
	if err != nil {
		return nil, err
	}
	if ev != nil {
		if herr := notifyCommit(*ev); herr != nil {
			return mf, herr
		}
	}
	return mf, nil
}

// appendDeltaLocked does the append under the directory writer lock and
// returns the commit event to notify (nil when nothing committed: a
// replayed batch or an empty record set). Sequence numbers follow the
// ascending partition order, so the same append into the same store
// commits the same manifest and the same file bytes.
func appendDeltaLocked[T any](
	dir string, c codec.Codec[T], recs []T, boxOf func(T) index.Box, opts AppendOptions,
) (*Manifest, *CommitEvent, error) {
	unlock := lockDir(dir)
	defer unlock()

	meta, mf, err := readView(dir)
	if err != nil {
		return nil, nil, err
	}
	// A legacy store is refused before anything is written: no reader
	// would take the view the append commits.
	if err := meta.CheckFormat(dir); err != nil {
		return nil, nil, err
	}
	if meta.NumPartitions() == 0 {
		return nil, nil, fmt.Errorf("storage: append to %s: dataset has no partitions", dir)
	}
	if opts.BatchID != "" && mf.applied(opts.BatchID) {
		return mf, nil, nil // committed by a previous attempt
	}
	if len(recs) == 0 {
		return mf, nil, nil
	}

	blockRecords := meta.BlockRecords
	if blockRecords <= 0 {
		blockRecords = DefaultBlockRecords
	}
	var parts []int
	var groups [][]T
	for pi, group := range routeToPartitions(meta, recs, boxOf) {
		if len(group) > 0 {
			ZCluster(group, boxOf)
			parts = append(parts, pi)
			groups = append(groups, group)
		}
	}
	runs, _, err := writePartitionV3File(dir, appendFileName(mf.NextSeq), c, groups, boxOf, blockRecords, true)
	if err != nil {
		return nil, nil, err
	}
	committed := make([]DeltaMeta, len(runs))
	for k, r := range runs {
		r.Format = FormatVersion
		committed[k] = DeltaMeta{
			Partition: parts[k], Seq: mf.NextSeq, PartitionMeta: r.PartitionMeta,
			FirstBlock: r.run.first, NumBlocks: r.run.num,
		}
		mf.NextSeq++
	}
	mf.Deltas = append(mf.Deltas, committed...)
	crash("append:delta-written")
	mf.Generation++
	mf.noteBatch(opts.BatchID)
	if err := writeManifest(dir, mf); err != nil {
		return nil, nil, err
	}
	ev := &CommitEvent{
		Dir:        dir,
		Kind:       CommitAppend,
		Generation: mf.Generation,
		BatchID:    opts.BatchID,
		Deltas:     committed,
	}
	return mf, ev, nil
}

// routeToPartitions assigns each record to a base partition: the one whose
// live extent (base ∪ attached deltas) grows least, in coordinates
// normalized by the dataset's own extent so degrees and seconds weigh
// comparably. Pure locality heuristic — pruning correctness rests on the
// deltas' recorded bounds, not on where records are routed. The result is
// indexed by partition id; partitions no record routes to get nil.
func routeToPartitions[T any](meta *Metadata, recs []T, boxOf func(T) index.Box) [][]T {
	boxes := make([]index.Box, meta.NumPartitions())
	all := index.EmptyBox()
	for i, p := range meta.Partitions {
		b := p.Box()
		for _, d := range meta.Deltas(i) {
			b = b.Union(d.Box())
		}
		boxes[i] = b
		all = all.Union(b)
	}
	scale := [index.Dims]float64{}
	for d := 0; d < index.Dims; d++ {
		scale[d] = all.Max[d] - all.Min[d]
		if scale[d] <= 0 {
			scale[d] = 1
		}
	}
	normVolume := func(b index.Box) float64 {
		v := 1.0
		for d := 0; d < index.Dims; d++ {
			v *= (b.Max[d] - b.Min[d]) / scale[d]
		}
		return v
	}
	groups := make([][]T, len(boxes))
	for _, rec := range recs {
		rb := boxOf(rec)
		best, bestCost := 0, 0.0
		for i, pb := range boxes {
			cost := normVolume(pb.Union(rb)) - normVolume(pb)
			if i == 0 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		groups[best] = append(groups[best], rec)
	}
	return groups
}
