// Package subscribe turns the serving tier's batch Selection path into a
// push-based online one: a client registers a window query as a standing
// subscription, and every committed delta batch is routed through an
// inverted interval index over the registered windows — an R-tree in which
// the query windows are the indexed boxes and the arriving records are the
// probes — so a batch of K records fans out to M subscribers in O(K log M)
// instead of O(K·M), and each matching subscriber is pushed an incremental
// update through a bounded queue.
//
// A subscription's stream is self-describing, three event kinds:
//
//   - init: the batch-query snapshot (per-partition chunks) the stream
//     starts from, stamped with the dataset generation and the delta
//     sequence fence NextSeq; every later event carries only records
//     committed at or after that fence.
//   - batch: one committed delta file's records intersecting the
//     subscriber's window, in file order, attributed to the base partition
//     the delta extends.
//   - resync: a fresh snapshot replacing everything delivered so far —
//     emitted when a compaction rewrote base files (Z-order reclustering
//     may reorder records) or when the subscriber's bounded queue
//     overflowed and dropped events (see Subscriber).
//
// Replaying a stream — start from init's chunks, append each batch event's
// records to its partition's chunk, replace wholesale on resync — yields,
// after every event, byte-for-byte the records a batch query of the same
// window would return: chunks flattened in ascending partition id order
// match ServeQuery's partition order, and within a partition base records
// precede deltas in sequence order on both paths. The metamorphic suite in
// internal/serve pins this equivalence across seeded
// window×batch×subscriber combos, including stalls, disconnects, and
// compactions racing the notifier.
package subscribe

import (
	"encoding/json"
	"errors"

	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// Kind labels one pushed update.
type Kind string

const (
	// KindInit is the snapshot a stream starts from.
	KindInit Kind = "init"
	// KindBatch is one committed delta file's matching records.
	KindBatch Kind = "batch"
	// KindResync is a replacement snapshot after compaction or overflow.
	KindResync Kind = "resync"
)

// Update is one pushed event, the SSE frame payload.
type Update struct {
	Kind    Kind   `json:"kind"`
	Dataset string `json:"dataset"`
	// Generation is the manifest generation the event was produced at.
	Generation int64 `json:"generation"`
	// NextSeq, on init/resync, is the snapshot's delta-sequence fence:
	// every committed delta below it is already inside Parts. Never
	// omitempty: 0 is a meaningful fence (dataset with no deltas yet).
	NextSeq int64 `json:"next_seq"`
	// Seq and Partition, on batch events, identify the committed delta
	// file and the base partition it extends. Never omitempty: the first
	// delta is seq 0 and partition 0 exists.
	Seq       int64 `json:"seq"`
	Partition int   `json:"partition"`
	// Records are a batch event's matching records in delta-file order.
	Records []json.RawMessage `json:"records,omitempty"`
	// Parts are a snapshot's per-partition chunks, ascending partition id.
	Parts []stdata.PartResult `json:"parts,omitempty"`
	// Dropped, on resync events, is how many queued events overflow had
	// discarded since the last snapshot (0 for compaction resyncs).
	Dropped int64 `json:"dropped,omitempty"`
}

// Options tunes one subscription.
type Options struct {
	// Limit caps the records encoded per snapshot (init/resync); 0 is
	// unlimited.
	Limit int
	// Queue overrides the hub's per-subscriber queue bound (0 inherits).
	Queue int
}

// Source is the hub's read-only view of one dataset, implemented by the
// serving tier over its catalog and cache.
type Source interface {
	// Manifest returns the dataset's current delta manifest — read by the
	// notifier only when a commit cannot be taken from its event (polls,
	// gaps, compactions, first sight).
	Manifest() (*storage.Manifest, error)
	// ReadDelta decodes one committed delta file into record boxes and the
	// records' JSON wire forms, in file order.
	ReadDelta(dm storage.DeltaMeta) ([]index.Box, []json.RawMessage, error)
	// Snapshot runs the batch query for w on a consistent view, returning
	// per-partition record chunks plus the view's manifest generation and
	// delta-sequence fence (Metadata.NextSeq).
	Snapshot(w selection.Window, limit int) ([]stdata.PartResult, int64, int64, error)
}

// ErrClosed is returned by Subscriber.Next once the subscription has been
// closed — by the client, or server-side when the daemon drains.
var ErrClosed = errors.New("subscribe: subscription closed")

// ErrUnknownDataset is returned by Hub.Subscribe for a dataset name no
// source was attached for.
var ErrUnknownDataset = errors.New("subscribe: unknown dataset")
