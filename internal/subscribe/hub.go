package subscribe

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"st4ml/internal/selection"
	"st4ml/internal/storage"
	"st4ml/internal/trace"
)

// Hub is the fan-out core: it owns, per attached dataset, the inverted
// window index and the live subscriber set, and turns committed delta
// batches into per-subscriber updates. Commits reach it two ways — the
// storage layer's OnCommit event for in-process writers (Notify), and a
// manifest poll (StartPolling) that catches commits from other processes
// (Poke) — both funnel into one generation-tracking notifier, so
// duplicated triggers are harmless. An append event that directly follows
// the notifier's cursor is pushed from the event's own delta list; every
// other trigger diffs the manifest.
type Hub struct {
	queue  int
	tracer *trace.Tracer

	mu       sync.Mutex
	datasets map[string]*hubDataset
	nextID   atomic.Int64

	subsTotal atomic.Int64 // subscriptions ever admitted
	batches   atomic.Int64 // delta files matched against the index
	events    atomic.Int64 // batch updates enqueued
	records   atomic.Int64 // records across enqueued batch updates
	drops     atomic.Int64 // queued events discarded by overflow
	resyncs   atomic.Int64 // resync snapshots delivered
	pollErrs  atomic.Int64 // background poll passes that failed

	pollStop chan struct{}
	pollDone chan struct{}
}

// Config tunes a hub.
type Config struct {
	// Queue is the default per-subscriber bounded queue (0 means 64).
	Queue int
	// Tracer, when non-nil, records subscribe:match and subscribe:push
	// spans for every processed delta batch.
	Tracer *trace.Tracer
}

// DefaultQueue is the per-subscriber queue bound when none is configured.
const DefaultQueue = 64

// NewHub returns an empty hub.
func NewHub(cfg Config) *Hub {
	q := cfg.Queue
	if q <= 0 {
		q = DefaultQueue
	}
	return &Hub{queue: q, tracer: cfg.Tracer, datasets: map[string]*hubDataset{}}
}

// hubDataset is the hub's per-dataset state.
type hubDataset struct {
	name string
	src  Source

	// notifyMu serializes commit processing with subscriber admission, so
	// a new subscriber never races the notifier between its registration
	// and its snapshot.
	notifyMu sync.Mutex
	// inited/lastGen/nextSeq/rewriteFP are the notifier's cursor into the
	// manifest history, guarded by notifyMu.
	inited    bool
	lastGen   int64
	nextSeq   int64
	rewriteFP string

	// mu guards the index and subscriber set (readers: the match path).
	mu   sync.Mutex
	idx  *SubIndex
	subs map[int64]*Subscriber
}

// Attach registers a dataset source under name. Re-attaching an existing
// name keeps its subscribers and swaps the source.
func (h *Hub) Attach(name string, src Source) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ds, ok := h.datasets[name]; ok {
		ds.notifyMu.Lock()
		ds.src = src
		ds.notifyMu.Unlock()
		return
	}
	h.datasets[name] = &hubDataset{
		name: name, src: src, idx: NewSubIndex(), subs: map[int64]*Subscriber{},
	}
}

func (h *Hub) dataset(name string) *hubDataset {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.datasets[name]
}

// Subscribe registers a standing window query against dataset name and
// returns the subscription with its init snapshot already queued. The
// admission order — catch the notifier up, register the window, then
// snapshot — plus the snapshot's sequence fence is what makes the stream
// gapless: a commit before the fence is inside the snapshot, a commit
// after it lands in the (already registered) queue, and queued events
// below the fence are discarded as duplicates.
func (h *Hub) Subscribe(name string, w selection.Window, opts Options) (*Subscriber, error) {
	ds := h.dataset(name)
	if ds == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDataset, name)
	}
	maxQueue := opts.Queue
	if maxQueue <= 0 {
		maxQueue = h.queue
	}
	sub := &Subscriber{
		id:      h.nextID.Add(1),
		dataset: name,
		window:  w,
		opts:    opts,
		hub:     h,
		ds:      ds,
		signal:  make(chan struct{}, 1),
		// A queue of one cannot hold a batch and still admit the next
		// without dropping; two is the floor that keeps resync livelock out.
		maxQueue: max(maxQueue, 2),
		pending:  true,
	}
	ds.notifyMu.Lock()
	if err := h.processLocked(ds, nil); err != nil {
		ds.notifyMu.Unlock()
		return nil, err
	}
	ds.mu.Lock()
	ds.idx.Insert(sub.id, w.Box())
	ds.subs[sub.id] = sub
	ds.mu.Unlock()
	ds.notifyMu.Unlock()

	parts, gen, nextSeq, err := ds.src.Snapshot(w, opts.Limit)
	if err != nil {
		h.unsubscribe(sub)
		return nil, err
	}
	sub.mu.Lock()
	sub.minSeq = nextSeq
	kept := sub.queue[:0]
	for _, u := range sub.queue {
		if u.Seq >= nextSeq {
			kept = append(kept, u)
		}
	}
	init := Update{
		Kind: KindInit, Dataset: name, Generation: gen, NextSeq: nextSeq, Parts: parts,
	}
	sub.queue = append([]Update{init}, kept...)
	sub.pending = false
	sub.wake()
	sub.mu.Unlock()
	h.subsTotal.Add(1)
	return sub, nil
}

// unsubscribe removes sub from its dataset and closes it.
func (h *Hub) unsubscribe(sub *Subscriber) {
	ds := sub.ds
	ds.mu.Lock()
	if _, ok := ds.subs[sub.id]; ok {
		delete(ds.subs, sub.id)
		ds.idx.Remove(sub.id)
	}
	ds.mu.Unlock()
	sub.mu.Lock()
	sub.closed = true
	sub.wake()
	sub.mu.Unlock()
}

// CloseAll closes every live subscription — the drain path: SSE handlers
// blocked in Next return ErrClosed and end their streams well before the
// daemon's drain timeout.
func (h *Hub) CloseAll() {
	h.mu.Lock()
	datasets := make([]*hubDataset, 0, len(h.datasets))
	for _, ds := range h.datasets {
		datasets = append(datasets, ds)
	}
	h.mu.Unlock()
	for _, ds := range datasets {
		ds.mu.Lock()
		subs := make([]*Subscriber, 0, len(ds.subs))
		for _, s := range ds.subs {
			subs = append(subs, s)
		}
		ds.mu.Unlock()
		for _, s := range subs {
			h.unsubscribe(s)
		}
	}
}

// Poke processes any commits to dataset name that the notifier has not
// seen yet, found by diffing the dataset's manifest — the poll's trigger.
func (h *Hub) Poke(name string) error {
	return h.notify(name, nil)
}

// Notify processes one committed manifest swap of dataset name. It is the
// OnCommit hook target: an append that directly follows the notifier's
// cursor is pushed from ev.Deltas without reading the manifest; any other
// event falls back to Poke's manifest diff. An error means matching or
// delta reading failed and surfaces to the committing writer as a
// *storage.HookError.
func (h *Hub) Notify(name string, ev storage.CommitEvent) error {
	return h.notify(name, &ev)
}

func (h *Hub) notify(name string, ev *storage.CommitEvent) error {
	ds := h.dataset(name)
	if ds == nil {
		return nil // dataset detached; the commit is nobody's business
	}
	ds.notifyMu.Lock()
	defer ds.notifyMu.Unlock()
	return h.processLocked(ds, ev)
}

// PokeAll polls every attached dataset once, returning the first error.
func (h *Hub) PokeAll() error {
	h.mu.Lock()
	names := make([]string, 0, len(h.datasets))
	for name := range h.datasets {
		names = append(names, name)
	}
	h.mu.Unlock()
	sort.Strings(names)
	var first error
	for _, name := range names {
		if err := h.Poke(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StartPolling launches a background loop that pokes every dataset each
// interval — the delivery path for commits made by other processes.
func (h *Hub) StartPolling(interval time.Duration) {
	if h.pollStop != nil {
		return
	}
	h.pollStop = make(chan struct{})
	h.pollDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := h.PokeAll(); err != nil {
					h.pollErrs.Add(1)
				}
			}
		}
	}(h.pollStop, h.pollDone)
}

// StopPolling halts the background poll loop and waits for it.
func (h *Hub) StopPolling() {
	if h.pollStop == nil {
		return
	}
	close(h.pollStop)
	<-h.pollDone
	h.pollStop, h.pollDone = nil, nil
}

// processLocked advances the notifier cursor past every commit it has not
// seen: unseen deltas are matched and pushed in sequence order; a changed
// rewrite set (compaction) schedules a resync for every subscriber
// instead, because rewritten base files may order records differently
// than anything already delivered. The unseen deltas come from ev when it
// is an append directly on top of the cursor — exactly the deltas a
// manifest diff would find, at O(the batch) — and from a diff of the
// current manifest otherwise: no event (the poll), a compaction, a
// generation or sequence gap, or first sight of the dataset. Caller holds
// ds.notifyMu.
func (h *Hub) processLocked(ds *hubDataset, ev *storage.CommitEvent) error {
	if ds.inited && follows(ev, ds.lastGen, ds.nextSeq) {
		if err := h.pushFresh(ds, ev.Generation, ev.Deltas); err != nil {
			return err
		}
		ds.lastGen = ev.Generation
		return nil
	}
	mf, err := ds.src.Manifest()
	if err != nil {
		return err
	}
	if ds.inited && mf.Generation == ds.lastGen {
		return nil
	}
	fp := rewriteFingerprint(mf)
	advance := func() {
		ds.lastGen, ds.nextSeq, ds.rewriteFP = mf.Generation, mf.NextSeq, fp
	}
	if !ds.inited {
		// First sight of the dataset: existing history belongs to snapshots,
		// not the push path.
		ds.inited = true
		advance()
		return nil
	}
	if fp != ds.rewriteFP {
		// Compaction committed (possibly alongside appends whose deltas it
		// already folded in). Everything is recovered by fresh snapshots.
		advance()
		h.resyncAll(ds)
		return nil
	}
	var fresh []storage.DeltaMeta
	for _, dm := range mf.Deltas {
		if dm.Seq >= ds.nextSeq {
			fresh = append(fresh, dm)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	// Every sequence minted since the cursor must be live: deltas only
	// leave the manifest through compaction, which changes the rewrite
	// fingerprint. If one is missing anyway, fall back to resync rather
	// than push a gapped stream.
	if int64(len(fresh)) != mf.NextSeq-ds.nextSeq {
		advance()
		h.resyncAll(ds)
		return nil
	}
	if err := h.pushFresh(ds, mf.Generation, fresh); err != nil {
		return err
	}
	advance()
	return nil
}

// follows reports whether ev is an append committed directly on top of the
// notifier cursor: generation lastGen+1, delta sequence numbers running
// from nextSeq without a gap. Appends never touch the rewrite set, so such
// an event's deltas are the whole difference between the two manifests.
func follows(ev *storage.CommitEvent, lastGen, nextSeq int64) bool {
	if ev == nil || ev.Kind != storage.CommitAppend || ev.Generation != lastGen+1 {
		return false
	}
	for i, dm := range ev.Deltas {
		if dm.Seq != nextSeq+int64(i) {
			return false
		}
	}
	return true
}

// pushFresh pushes unseen deltas in sequence order, moving the cursor's
// sequence past each one as it lands.
func (h *Hub) pushFresh(ds *hubDataset, gen int64, fresh []storage.DeltaMeta) error {
	for _, dm := range fresh {
		if err := h.pushDelta(ds, gen, dm); err != nil {
			return err
		}
		ds.nextSeq = dm.Seq + 1
	}
	return nil
}

// resyncAll schedules a resync for every subscriber of ds.
func (h *Hub) resyncAll(ds *hubDataset) {
	ds.mu.Lock()
	subs := make([]*Subscriber, 0, len(ds.subs))
	for _, s := range ds.subs {
		subs = append(subs, s)
	}
	ds.mu.Unlock()
	for _, s := range subs {
		s.markResync()
	}
}

// pushDelta routes one committed delta file through the window index and
// enqueues a batch update per matching subscriber — the O(K log M) hot
// path of the online tier. The records are the source's wire forms,
// encoded once per file (Source.ReadDelta) and shared by every matching
// subscriber's update; the SSE writer splices them into frames verbatim.
func (h *Hub) pushDelta(ds *hubDataset, gen int64, dm storage.DeltaMeta) error {
	ds.mu.Lock()
	registered := ds.idx.Len()
	hit := registered > 0 && ds.idx.Any(dm.Box())
	ds.mu.Unlock()
	if !hit {
		return nil // no window can match: skip the file read entirely
	}
	sp := h.tracer.StartSpan(0, trace.SpanSubscribeMatch,
		trace.Str("dataset", ds.name),
		trace.Int("seq", dm.Seq),
		trace.Int("partition", int64(dm.Partition)))
	boxes, recs, err := ds.src.ReadDelta(dm)
	if err != nil {
		sp.End(trace.Str("error", err.Error()))
		return fmt.Errorf("subscribe: read delta seq %d of %s: %w", dm.Seq, ds.name, err)
	}
	ds.mu.Lock()
	matched := map[int64][]json.RawMessage{}
	for i, b := range boxes {
		ds.idx.Match(b, func(id int64) {
			matched[id] = append(matched[id], recs[i])
		})
	}
	targets := make([]*Subscriber, 0, len(matched))
	for id := range matched {
		if s := ds.subs[id]; s != nil {
			targets = append(targets, s)
		}
	}
	ds.mu.Unlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
	queued := 0
	for _, sub := range targets {
		rs := matched[sub.id]
		psp := sp.Child(trace.SpanSubscribePush,
			trace.Int("subscriber", sub.id), trace.Int("records", int64(len(rs))))
		ok := sub.enqueue(Update{
			Kind: KindBatch, Dataset: ds.name, Generation: gen,
			Seq: dm.Seq, Partition: dm.Partition, Records: rs,
		})
		psp.End(trace.Bool("queued", ok))
		if ok {
			queued++
			h.records.Add(int64(len(rs)))
		}
	}
	h.batches.Add(1)
	h.events.Add(int64(queued))
	sp.End(trace.Int("records", int64(len(boxes))),
		trace.Int("subscribers", int64(registered)),
		trace.Int("matched", int64(len(targets))))
	return nil
}

// resync builds sub's replacement snapshot. The fresh fence both filters
// the queue (events at or above it are still ahead of the snapshot and
// survive) and arms enqueue's duplicate discard for events the notifier
// pushes while the snapshot was being built.
func (h *Hub) resync(sub *Subscriber, dropped int64) (Update, error) {
	parts, gen, nextSeq, err := sub.ds.src.Snapshot(sub.window, sub.opts.Limit)
	if err != nil {
		return Update{}, err
	}
	sub.mu.Lock()
	sub.minSeq = nextSeq
	kept := sub.queue[:0]
	for _, u := range sub.queue {
		if u.Seq >= nextSeq {
			kept = append(kept, u)
		}
	}
	sub.queue = kept
	sub.mu.Unlock()
	h.resyncs.Add(1)
	return Update{
		Kind: KindResync, Dataset: sub.dataset, Generation: gen,
		NextSeq: nextSeq, Parts: parts, Dropped: dropped,
	}, nil
}

// rewriteFingerprint canonically encodes a manifest's compaction rewrites.
// Every compaction pass installs generation-suffixed file names, so any
// commit that folded deltas or reordered a base file changes this string.
func rewriteFingerprint(mf *storage.Manifest) string {
	if len(mf.Rewrites) == 0 {
		return ""
	}
	keys := make([]int, 0, len(mf.Rewrites))
	for pi := range mf.Rewrites {
		keys = append(keys, pi)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, pi := range keys {
		fmt.Fprintf(&b, "%d:%s;", pi, mf.Rewrites[pi].File)
	}
	return b.String()
}

// Stats is the hub's counter snapshot, exported on /metrics.
type Stats struct {
	// ActiveSubscribers is the number of live subscriptions.
	ActiveSubscribers int `json:"active_subscribers"`
	// TotalSubscribers counts subscriptions ever admitted.
	TotalSubscribers int64 `json:"subscribers_total"`
	// QueuedEvents is the current total lag: undelivered updates summed
	// over every live subscriber's queue.
	QueuedEvents int `json:"queued_events"`
	// BatchesMatched counts delta files routed through the window index.
	BatchesMatched int64 `json:"batches_matched"`
	// EventsPushed counts batch updates enqueued to subscribers.
	EventsPushed int64 `json:"events_pushed"`
	// RecordsPushed counts records across enqueued batch updates.
	RecordsPushed int64 `json:"records_pushed"`
	// EventsDropped counts queued updates discarded by overflow.
	EventsDropped int64 `json:"events_dropped"`
	// Resyncs counts snapshot-replacing resync deliveries.
	Resyncs int64 `json:"resyncs"`
	// PollErrors counts failed background poll passes.
	PollErrors int64 `json:"poll_errors"`
	// MaxQueue is the configured default per-subscriber queue bound.
	MaxQueue int `json:"max_queue"`
}

// Stats returns a point-in-time snapshot of the hub's counters.
func (h *Hub) Stats() Stats {
	st := Stats{
		TotalSubscribers: h.subsTotal.Load(),
		BatchesMatched:   h.batches.Load(),
		EventsPushed:     h.events.Load(),
		RecordsPushed:    h.records.Load(),
		EventsDropped:    h.drops.Load(),
		Resyncs:          h.resyncs.Load(),
		PollErrors:       h.pollErrs.Load(),
		MaxQueue:         h.queue,
	}
	h.mu.Lock()
	datasets := make([]*hubDataset, 0, len(h.datasets))
	for _, ds := range h.datasets {
		datasets = append(datasets, ds)
	}
	h.mu.Unlock()
	for _, ds := range datasets {
		ds.mu.Lock()
		st.ActiveSubscribers += len(ds.subs)
		subs := make([]*Subscriber, 0, len(ds.subs))
		for _, s := range ds.subs {
			subs = append(subs, s)
		}
		ds.mu.Unlock()
		for _, s := range subs {
			st.QueuedEvents += s.Pending()
		}
	}
	return st
}
