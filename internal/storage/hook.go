package storage

import (
	"fmt"
	"path/filepath"
	"sync"
)

// Commit hooks are the bridge from the delta layer's commit point to the
// online subscription path: the subscribe notifier registers one per served
// dataset directory and is handed every manifest swap synchronously, so
// in-process ingest (stingest, stserved -demo, the benches) pushes the
// batch it just wrote without polling or re-reading the manifest.
// Cross-process commits are still picked up by the notifier's manifest
// poll — hooks are an optimization plus an error surface, not the only
// delivery channel.

// CommitKind distinguishes the two operations that swap the manifest.
type CommitKind int

const (
	// CommitAppend is an AppendDelta commit: new delta files became live.
	CommitAppend CommitKind = iota + 1
	// CommitCompact is a Compact commit: live deltas were folded into
	// generation-suffixed base rewrites. Record order within the rewritten
	// partitions may differ from any earlier read (Z-order reclustering),
	// which is why subscribers resync rather than patch on this kind.
	CommitCompact
)

func (k CommitKind) String() string {
	switch k {
	case CommitAppend:
		return "append"
	case CommitCompact:
		return "compact"
	default:
		return fmt.Sprintf("CommitKind(%d)", int(k))
	}
}

// CommitEvent describes one committed manifest swap.
type CommitEvent struct {
	// Dir is the dataset directory whose manifest was swapped.
	Dir string
	// Kind is the operation that committed.
	Kind CommitKind
	// Generation is the manifest generation the swap published.
	Generation int64
	// BatchID is the append's exactly-once batch id ("" when the append
	// carried none, and always for compactions).
	BatchID string
	// Deltas are the delta files this append committed, in sequence order
	// (nil for compactions).
	Deltas []DeltaMeta
}

// HookError reports that a commit hook failed AFTER the manifest swap
// committed. The append or compaction itself is durable — callers must not
// retry the write (an exactly-once batch would dedup to a no-op and the
// notification would be lost silently); they should ack the batch as
// committed and surface the notification failure loudly.
type HookError struct {
	Err error
}

func (e *HookError) Error() string { return "storage: commit hook: " + e.Err.Error() }
func (e *HookError) Unwrap() error { return e.Err }

// commitHooks registers hook functions per cleaned dataset directory, the
// same keying as dirLocks.
var (
	commitHooksMu sync.Mutex
	commitHooks   = map[string][]*commitHook{}
)

type commitHook struct {
	fn func(CommitEvent) error
}

// OnCommit registers fn to run synchronously after every committed
// manifest swap (append or compaction) of the dataset at dir, and returns
// a cancel func that unregisters it. Hooks run after the directory's
// writer lock is released, so a hook may read the dataset — and may even
// observe a manifest newer than the event's generation if another writer
// committed in between, or receive two events out of generation order.
// An append event's Deltas are authoritative for its generation: a
// consumer whose cursor sits at Generation-1, and whose next sequence
// number is the first delta's Seq, has seen everything before this commit
// and can apply ev.Deltas without reading the manifest. Any other event —
// a compaction, or a generation gap — means "something committed" and the
// manifest is the truth. Hooks must be brief; a hook error aborts later
// hooks and is returned to the committing writer wrapped in *HookError.
func OnCommit(dir string, fn func(CommitEvent) error) (cancel func()) {
	h := &commitHook{fn: fn}
	key := filepath.Clean(dir)
	commitHooksMu.Lock()
	commitHooks[key] = append(commitHooks[key], h)
	commitHooksMu.Unlock()
	return func() {
		commitHooksMu.Lock()
		defer commitHooksMu.Unlock()
		hooks := commitHooks[key]
		for i, hh := range hooks {
			if hh == h {
				commitHooks[key] = append(append([]*commitHook{}, hooks[:i]...), hooks[i+1:]...)
				break
			}
		}
		if len(commitHooks[key]) == 0 {
			delete(commitHooks, key)
		}
	}
}

// notifyCommit runs the hooks registered for ev.Dir in registration order;
// the first failure stops the chain and comes back as *HookError.
func notifyCommit(ev CommitEvent) error {
	key := filepath.Clean(ev.Dir)
	commitHooksMu.Lock()
	hooks := append([]*commitHook(nil), commitHooks[key]...)
	commitHooksMu.Unlock()
	for _, h := range hooks {
		if err := h.fn(ev); err != nil {
			return &HookError{Err: err}
		}
	}
	return nil
}
