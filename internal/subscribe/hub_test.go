package subscribe

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// fakeRec is the hub tests' record: a point with an id, marshaled once so
// wire forms are stable.
type fakeRec struct {
	ID int     `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	T  int64   `json:"t"`
}

func (r fakeRec) box() index.Box {
	return index.BoxOfPoint(geom.Pt(r.X, r.Y), r.T)
}

func (r fakeRec) raw() json.RawMessage {
	b, _ := json.Marshal(r)
	return b
}

// fakeSource is an in-memory Source: commits mint sequence numbers and bump
// the generation exactly like the delta layer, snapshots filter everything
// committed so far.
type fakeSource struct {
	mu        sync.Mutex
	mf        storage.Manifest
	deltas    map[int64][]fakeRec
	all       []fakeRec
	snapErr   error
	snaps     int
	manifests int // Manifest calls: the notifier's fallback diffs
}

func newFakeSource() *fakeSource {
	return &fakeSource{deltas: map[int64][]fakeRec{}}
}

// commit appends one delta batch to partition part and returns the commit
// event the storage layer would hand its OnCommit hooks.
func (f *fakeSource) commit(part int, recs ...fakeRec) storage.CommitEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq := f.mf.NextSeq
	f.mf.NextSeq++
	f.mf.Generation++
	bounds := index.EmptyBox()
	for _, r := range recs {
		bounds = bounds.Union(r.box())
	}
	dm := storage.DeltaMeta{Partition: part, Seq: seq}
	dm.Count = int64(len(recs))
	s, d := bounds.Spatial(), bounds.Temporal()
	dm.MinX, dm.MinY, dm.MaxX, dm.MaxY = s.MinX, s.MinY, s.MaxX, s.MaxY
	dm.TStart, dm.TEnd = d.Start, d.End
	f.mf.Deltas = append(f.mf.Deltas, dm)
	f.deltas[seq] = recs
	f.all = append(f.all, recs...)
	return storage.CommitEvent{Kind: storage.CommitAppend, Generation: f.mf.Generation,
		Deltas: []storage.DeltaMeta{dm}}
}

// compact simulates a compaction commit: deltas fold away and the rewrite
// set changes (generation-suffixed file names, like the real compactor).
func (f *fakeSource) compact() storage.CommitEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mf.Generation++
	if f.mf.Rewrites == nil {
		f.mf.Rewrites = map[int]storage.PartitionMeta{}
	}
	f.mf.Rewrites[0] = storage.PartitionMeta{File: fmt.Sprintf("part-00000-g%d.col", f.mf.Generation)}
	f.mf.Deltas = nil
	return storage.CommitEvent{Kind: storage.CommitCompact, Generation: f.mf.Generation}
}

// dropDelta removes one live delta without touching the rewrite set — the
// impossible-by-design manifest gap the notifier must answer with resync.
func (f *fakeSource) dropDelta(seq int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mf.Generation++
	kept := f.mf.Deltas[:0]
	for _, dm := range f.mf.Deltas {
		if dm.Seq != seq {
			kept = append(kept, dm)
		}
	}
	f.mf.Deltas = kept
}

func (f *fakeSource) Manifest() (*storage.Manifest, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.manifests++
	mf := f.mf
	mf.Deltas = append([]storage.DeltaMeta(nil), f.mf.Deltas...)
	return &mf, nil
}

func (f *fakeSource) ReadDelta(dm storage.DeltaMeta) ([]index.Box, []json.RawMessage, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	recs, ok := f.deltas[dm.Seq]
	if !ok {
		return nil, nil, fmt.Errorf("no delta with seq %d", dm.Seq)
	}
	boxes := make([]index.Box, len(recs))
	raw := make([]json.RawMessage, len(recs))
	for i, r := range recs {
		boxes[i] = r.box()
		raw[i] = r.raw()
	}
	return boxes, raw, nil
}

func (f *fakeSource) Snapshot(w selection.Window, limit int) ([]stdata.PartResult, int64, int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.snaps++
	if f.snapErr != nil {
		return nil, 0, 0, f.snapErr
	}
	var p stdata.PartResult
	for _, r := range f.all {
		if r.box().Intersects(w.Box()) {
			p.Records = append(p.Records, r.raw())
			p.Selected++
		}
	}
	var parts []stdata.PartResult
	if p.Selected > 0 {
		parts = []stdata.PartResult{p}
	}
	return parts, f.mf.Generation, f.mf.NextSeq, nil
}

func window(minx, miny, maxx, maxy float64, t0, t1 int64) selection.Window {
	return selection.Window{
		Space: geom.MBR{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy},
		Time:  tempo.Duration{Start: t0, End: t1},
	}
}

// next fetches one update with a short deadline.
func next(t *testing.T, sub *Subscriber) Update {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	u, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return u
}

func TestHubInitAndPush(t *testing.T) {
	src := newFakeSource()
	src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 10})
	h := NewHub(Config{})
	h.Attach("d", src)

	sub, err := h.Subscribe("d", window(0, 0, 5, 5, 0, 100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	u := next(t, sub)
	if u.Kind != KindInit || u.Generation != 1 || u.NextSeq != 1 {
		t.Fatalf("init = %+v", u)
	}
	if len(u.Parts) != 1 || len(u.Parts[0].Records) != 1 {
		t.Fatalf("init parts = %+v", u.Parts)
	}

	// A matching commit pushes exactly the intersecting records.
	src.commit(2, fakeRec{ID: 2, X: 2, Y: 2, T: 20}, fakeRec{ID: 3, X: 50, Y: 50, T: 20})
	if err := h.Poke("d"); err != nil {
		t.Fatal(err)
	}
	u = next(t, sub)
	if u.Kind != KindBatch || u.Seq != 1 || u.Partition != 2 {
		t.Fatalf("batch = %+v", u)
	}
	if len(u.Records) != 1 || string(u.Records[0]) != string((fakeRec{ID: 2, X: 2, Y: 2, T: 20}).raw()) {
		t.Fatalf("batch records = %v", u.Records)
	}

	// A commit entirely outside the window pushes nothing.
	src.commit(0, fakeRec{ID: 4, X: 80, Y: 80, T: 20})
	if err := h.Poke("d"); err != nil {
		t.Fatal(err)
	}
	if n := sub.Pending(); n != 0 {
		t.Fatalf("non-matching commit queued %d updates", n)
	}
	// Duplicate pokes are harmless: the cursor already advanced.
	if err := h.Poke("d"); err != nil {
		t.Fatal(err)
	}
	if n := sub.Pending(); n != 0 {
		t.Fatalf("duplicate poke queued %d updates", n)
	}

	st := h.Stats()
	if st.ActiveSubscribers != 1 || st.TotalSubscribers != 1 || st.EventsPushed != 1 || st.RecordsPushed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHubSubscribeUnknownDataset(t *testing.T) {
	h := NewHub(Config{})
	if _, err := h.Subscribe("nope", window(0, 0, 1, 1, 0, 1), Options{}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("err = %v, want ErrUnknownDataset", err)
	}
	if err := h.Poke("nope"); err != nil {
		t.Fatalf("poking a detached dataset errored: %v", err)
	}
}

// TestHubOverflowResync pins the backpressure contract: a stalled
// subscriber's queue drops its oldest events, and the next read delivers a
// resync whose snapshot already contains everything dropped.
func TestHubOverflowResync(t *testing.T) {
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	sub, err := h.Subscribe("d", window(0, 0, 100, 100, 0, 1000), Options{Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if u := next(t, sub); u.Kind != KindInit {
		t.Fatalf("first update %+v", u)
	}

	for i := 0; i < 5; i++ {
		src.commit(0, fakeRec{ID: i, X: 1, Y: 1, T: int64(i)})
		if err := h.Poke("d"); err != nil {
			t.Fatal(err)
		}
	}
	// Queue bound 2: three of the five events were dropped, a resync is due.
	if st := h.Stats(); st.EventsDropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.EventsDropped)
	}
	u := next(t, sub)
	if u.Kind != KindResync || u.Dropped != 3 {
		t.Fatalf("resync = %+v", u)
	}
	if u.NextSeq != 5 || len(u.Parts) != 1 || len(u.Parts[0].Records) != 5 {
		t.Fatalf("resync snapshot fence=%d parts=%+v, want all 5 records", u.NextSeq, u.Parts)
	}
	// The snapshot's fence filtered the still-queued events as duplicates.
	if n := sub.Pending(); n != 0 {
		t.Fatalf("%d stale events survive the resync", n)
	}
	if st := h.Stats(); st.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", st.Resyncs)
	}
}

// TestHubResyncErrorRetries pins that a failed resync snapshot restores the
// marker so the subscriber still recovers.
func TestHubResyncErrorRetries(t *testing.T) {
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	sub, err := h.Subscribe("d", window(0, 0, 100, 100, 0, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub) // init

	src.compact()
	if err := h.Poke("d"); err != nil {
		t.Fatal(err)
	}
	src.mu.Lock()
	src.snapErr = errors.New("snapshot down")
	src.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sub.Next(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("failed resync surfaced as %v", err)
	}
	src.mu.Lock()
	src.snapErr = nil
	src.mu.Unlock()
	if u := next(t, sub); u.Kind != KindResync {
		t.Fatalf("retry delivered %+v, want resync", u)
	}
}

// TestHubCompactionResync pins that a changed rewrite set schedules a
// resync instead of pushing deltas.
func TestHubCompactionResync(t *testing.T) {
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	sub, err := h.Subscribe("d", window(0, 0, 100, 100, 0, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub) // init

	src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1})
	src.compact()
	if err := h.Poke("d"); err != nil {
		t.Fatal(err)
	}
	u := next(t, sub)
	if u.Kind != KindResync || u.Dropped != 0 {
		t.Fatalf("post-compaction update = %+v, want resync", u)
	}
	if len(u.Parts) != 1 || len(u.Parts[0].Records) != 1 {
		t.Fatalf("resync snapshot = %+v", u.Parts)
	}

	// A second compaction changes the fingerprint again: another resync.
	src.compact()
	if err := h.Poke("d"); err != nil {
		t.Fatal(err)
	}
	if u := next(t, sub); u.Kind != KindResync {
		t.Fatalf("second compaction delivered %+v", u)
	}
}

// TestHubManifestGapResync pins the defensive fallback: live deltas
// disappearing without a rewrite change cannot be patched incrementally.
func TestHubManifestGapResync(t *testing.T) {
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	sub, err := h.Subscribe("d", window(0, 0, 100, 100, 0, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub) // init

	src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1})
	src.commit(0, fakeRec{ID: 2, X: 2, Y: 2, T: 2})
	src.dropDelta(0)
	if err := h.Poke("d"); err != nil {
		t.Fatal(err)
	}
	if u := next(t, sub); u.Kind != KindResync {
		t.Fatalf("gapped manifest delivered %+v, want resync", u)
	}
}

// TestSubscriberFence pins enqueue's duplicate discard: batch events below
// the snapshot fence are dropped, during admission everything buffers.
func TestSubscriberFence(t *testing.T) {
	h := NewHub(Config{})
	sub := &Subscriber{hub: h, signal: make(chan struct{}, 1), maxQueue: 8, minSeq: 3}
	if sub.enqueue(Update{Kind: KindBatch, Seq: 2}) {
		t.Fatal("event below the fence was queued")
	}
	if !sub.enqueue(Update{Kind: KindBatch, Seq: 3}) {
		t.Fatal("event at the fence was dropped")
	}
	sub.pending = true
	if !sub.enqueue(Update{Kind: KindBatch, Seq: 0}) {
		t.Fatal("pending admission dropped a buffered event")
	}
	if sub.Pending() != 0 {
		t.Fatal("Pending leaked buffered events during admission")
	}
	sub.mu.Lock()
	sub.closed = true
	sub.mu.Unlock()
	if sub.enqueue(Update{Kind: KindBatch, Seq: 9}) {
		t.Fatal("closed subscriber accepted an event")
	}
}

func TestNextContextCancel(t *testing.T) {
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	sub, err := h.Subscribe("d", window(0, 0, 1, 1, 0, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub) // init
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next on an idle stream returned %v", err)
	}
}

func TestCloseAllEndsSubscriptions(t *testing.T) {
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	var subs []*Subscriber
	for i := 0; i < 3; i++ {
		sub, err := h.Subscribe("d", window(0, 0, 1, 1, 0, 1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		next(t, sub) // init
	}
	done := make(chan error, 1)
	go func() {
		_, err := subs[0].Next(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	h.CloseAll()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Next returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CloseAll did not wake the blocked Next")
	}
	for _, sub := range subs {
		if _, err := sub.Next(context.Background()); !errors.Is(err, ErrClosed) {
			t.Fatalf("Next after CloseAll returned %v", err)
		}
	}
	if st := h.Stats(); st.ActiveSubscribers != 0 || st.TotalSubscribers != 3 {
		t.Fatalf("stats after CloseAll = %+v", st)
	}
	// Close after CloseAll is a safe no-op.
	subs[0].Close()
}

// TestHubPolling drives the background poll loop end to end.
func TestHubPolling(t *testing.T) {
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	sub, err := h.Subscribe("d", window(0, 0, 100, 100, 0, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub) // init
	h.StartPolling(2 * time.Millisecond)
	defer h.StopPolling()
	src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1})
	u := next(t, sub)
	if u.Kind != KindBatch || len(u.Records) != 1 {
		t.Fatalf("polled update = %+v", u)
	}
	h.StopPolling()
	h.StopPolling() // idempotent
}
