package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/subscribe"
)

// ingestWorkload is ingest_live: the write side of the storage layer,
// beside reads. One writer appends batches to a live store a daemon is
// serving; standing subscriptions on the daemon's hub receive every batch;
// reads hit the now delta-laden store; every compactEvery-th cycle the
// deltas are folded back. It runs a fixed number of cycles, not a fixed
// time, because the store grows with progress: a faster build must not be
// measured on a bigger store.
type ingestWorkload struct {
	cfg config

	base     []stdata.EventRec
	batches  [][]stdata.EventRec
	windows  []selection.Window // read windows, cycled
	bodies   [][]byte
	standing []selection.Window

	// cur[i] is the brute-force answer of read window i over the base plus
	// every batch appended so far; batchWant[j][i] is batch j's share.
	cur        []answer
	baseWant   []answer
	batchWant  [][]answer
	standWant  []answer // standing window s over base + appended batches
	standBase  []answer
	standBatch [][]answer // [batch][standing window]

	dir       string
	srv       *serve.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client
	subs      []*subscribe.Subscriber

	appended int   // batches appended since set-up
	reads    int64 // reads issued since set-up
	// commitAt is when the last append's manifest swap committed, taken by
	// a commit hook registered ahead of the daemon's: what follows it is
	// the hub's work, what precedes it the storage write and its fsyncs.
	commitAt   time.Time
	cancelHook func()

	compactMS []float64 // duration of every compaction since set-up
	// setupShuffleBytes is what the ingest job shuffled (a per-layer metric).
	setupShuffleBytes int64
}

const (
	// liveCyclesPerSecond sizes the fixed cycle count from the requested
	// window: the seed commit runs ~6 cycles a second on the calibration
	// box, so seconds x 6 cycles take about the requested time there.
	// Frozen: changing it changes what every later number is measured on.
	liveCyclesPerSecond = 6
	// pinnedBatches is how many append batches the frozen-input digest
	// covers.
	pinnedBatches = 8
	// compactEvery is the compaction cadence in cycles.
	compactEvery = 16
	// readsPerCycle is how many delta-laden reads follow each append.
	readsPerCycle = 4
)

func (w *ingestWorkload) cyclesFor(d time.Duration) int {
	return max(1, int(math.Round(d.Seconds()*liveCyclesPerSecond)))
}

func (w *ingestWorkload) prepare() string {
	sc := w.cfg.scale
	seed := w.cfg.seed
	w.base = genEvents(sc.LiveBase)
	w.windows = genWindows(datagen.NYCExtent, sc.Windows, subSeed(seed, seedWindows))
	w.standing = genWindows(datagen.NYCExtent, sc.Standing, subSeed(seed, seedStanding))
	w.bodies = make([][]byte, len(w.windows))
	for i, win := range w.windows {
		w.bodies[i] = queryBody(win, true, false, true)
	}
	n := w.cyclesFor(w.cfg.warmup()) + w.cyclesFor(w.cfg.window())
	if w.cfg.trace {
		n = w.cfg.replayOps / opsPerCycle
	}
	// The input digest covers the first pinnedBatches batches, whatever
	// the window: a pin must not move with -seconds.
	n = max(n, pinnedBatches)
	w.batches = make([][]stdata.EventRec, n)
	for j := range w.batches {
		w.batches[j] = genBatch(sc, seed, j)
	}

	w.baseWant = bruteEvents(w.base, w.windows)
	w.standBase = bruteEvents(w.base, w.standing)
	w.batchWant = make([][]answer, n)
	w.standBatch = make([][]answer, n)
	for j, b := range w.batches {
		w.batchWant[j] = bruteEvents(b, w.windows)
		w.standBatch[j] = bruteEvents(b, w.standing)
	}

	d := newInputDigest()
	d.events(w.base)
	d.windows(w.windows)
	d.windows(w.standing)
	for _, b := range w.bodies {
		d.bytes(b)
	}
	for _, b := range w.batches[:pinnedBatches] {
		d.events(b)
	}
	return d.sum()
}

func (w *ingestWorkload) setup(dir string) (time.Duration, error) {
	w.dir = dir
	w.appended, w.reads = 0, 0
	w.compactMS = nil
	w.cur = append([]answer(nil), w.baseWant...)
	w.standWant = append([]answer(nil), w.standBase...)

	t0 := time.Now()
	var err error
	if w.setupShuffleBytes, err = ingestNYC(w.base, dir); err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	// Hooks run in registration order: this one stamps the commit before
	// the daemon's hook starts pushing it.
	w.cancelHook = storage.OnCommit(dir, func(ev storage.CommitEvent) error {
		if ev.Kind == storage.CommitAppend {
			w.commitAt = time.Now()
		}
		return nil
	})
	// Commits reach the hub through the in-process storage hook, the path
	// under test; the manifest poll for out-of-process writers is off.
	w.srv = serve.NewServer(serve.Config{SubscribePoll: -1})
	if err := w.srv.AddDataset("nyc", "nyc", dir); err != nil {
		return 0, err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client, w.transport = loopbackClient()
	for s, win := range w.standing {
		// Limit 1: snapshots (init, and the resync every compaction
		// forces) carry per-partition selected counts, which is what gets
		// checked, without marshalling the whole window.
		sub, err := w.srv.Hub().Subscribe("nyc", win, subscribe.Options{Limit: 1})
		if err != nil {
			return 0, err
		}
		w.subs = append(w.subs, sub)
		u, err := w.nextUpdate(sub)
		if err != nil {
			return 0, err
		}
		if u.Kind != subscribe.KindInit || selectedOf(u) != w.standWant[s].Count {
			return 0, fmt.Errorf("subscriber %d: init snapshot did not verify", s)
		}
	}
	if s := w.read(); !s.ok {
		return 0, errors.New("first read did not verify")
	}
	return time.Since(t0), nil
}

func (w *ingestWorkload) teardown() {
	for _, sub := range w.subs {
		sub.Close()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	if w.cancelHook != nil {
		w.cancelHook()
	}
	w.subs, w.ts, w.srv, w.transport, w.cancelHook = nil, nil, nil, nil, nil
}

// nextUpdate takes a subscriber's next queued update. It is only called
// when one is pending; the timeout is a backstop against a hang.
func (w *ingestWorkload) nextUpdate(sub *subscribe.Subscriber) (subscribe.Update, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return sub.Next(ctx)
}

// selectedOf sums a snapshot's per-partition selected counts.
func selectedOf(u subscribe.Update) int64 {
	var n int64
	for _, p := range u.Parts {
		n += p.Selected
	}
	return n
}

// drain empties every subscriber's queue and checks it: batch updates must
// add up to exactly the records of batch j inside the subscriber's window,
// and a resync snapshot (one follows every compaction) must count exactly
// the records committed so far, with nothing dropped.
func (w *ingestWorkload) drain(j int) bool {
	ok := true
	for s, sub := range w.subs {
		var got answer
		for sub.Pending() > 0 {
			u, err := w.nextUpdate(sub)
			if err != nil {
				return false
			}
			switch u.Kind {
			case subscribe.KindBatch:
				for _, rec := range u.Records {
					got = got.plus(scanIDs(rec))
				}
			case subscribe.KindResync:
				// A resync replaces the stream: it already holds batch j.
				if u.Dropped != 0 || selectedOf(u) != w.standWant[s].Count {
					ok = false
				}
				got = w.standBatch[j][s]
			}
		}
		if got != w.standBatch[j][s] {
			ok = false
		}
	}
	return ok
}

// read issues the next delta-laden read and checks it against brute force
// over the base and every batch appended so far.
func (w *ingestWorkload) read() sample {
	idx := int(w.reads % int64(len(w.bodies)))
	w.reads++
	s := sample{class: classRead, primary: true}
	t0 := time.Now()
	resp, err := w.client.Post(w.ts.URL+"/query", "application/json", bytes.NewReader(w.bodies[idx]))
	if err != nil {
		s.ms = msSince(t0)
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.ms = msSince(t0)
	if err != nil || resp.StatusCode != http.StatusOK {
		return s
	}
	s.ok = scanInt(body, selectedKey) == w.cur[idx].Count && scanIDs(body) == w.cur[idx]
	return s
}

// cycle appends the next batch, waits until every matching subscriber has
// it, compacts on the cadence, and reads. The append and the reads are the
// client's operations (p50_ms, p95_ms); the push latency runs from the
// commit, not from the start of the append, so that it measures the hub and
// not the sandbox disk's fsyncs.
func (w *ingestWorkload) cycle() ([]sample, error) {
	j := w.appended
	sch := nycSchema()
	t0 := time.Now()
	_, err := sch.Append(w.batches[j], w.dir, fmt.Sprintf("live-%d", j))
	appendMS := msSince(t0)
	if err != nil {
		return nil, fmt.Errorf("append %d: %w", j, err)
	}
	w.noteAppended()
	pushed := w.drain(j)
	out := []sample{
		{class: classOp, primary: true, ms: appendMS, ok: true},
		{class: classPush, ms: msSince(w.commitAt), ok: pushed},
	}
	if w.appended%compactEvery == 0 {
		if err := w.compact(); err != nil {
			return nil, err
		}
	}
	for r := 0; r < readsPerCycle; r++ {
		out = append(out, w.read())
	}
	return out, nil
}

// noteAppended advances the expectations past the batch just committed.
func (w *ingestWorkload) noteAppended() {
	j := w.appended
	w.appended++
	for i := range w.cur {
		w.cur[i] = w.cur[i].plus(w.batchWant[j][i])
	}
	for s := range w.standWant {
		w.standWant[s] = w.standWant[s].plus(w.standBatch[j][s])
	}
}

// compact folds every delta back into its base and collects the files it
// obsoletes (GCGrace 0: no reader is in flight, the writer drives the reads
// too). The reads that follow are checked against the same brute-force
// answers as before it, which is the proof that a compaction changes the
// layout and nothing else.
func (w *ingestWorkload) compact() error {
	t0 := time.Now()
	if _, err := nycSchema().Compact(w.dir, storage.CompactOptions{MinDeltas: 1}); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	w.compactMS = append(w.compactMS, msSince(t0))
	return nil
}

func (w *ingestWorkload) run(ctx context.Context, cycles int) (*measured, error) {
	m := &measured{}
	start := time.Now()
	for c := 0; c < cycles && ctx.Err() == nil; c++ {
		ss, err := w.cycle()
		if err != nil {
			return nil, err
		}
		m.samples = append(m.samples, ss...)
		m.opEnds = append(m.opEnds, time.Since(start))
	}
	return m, nil
}

func (w *ingestWorkload) warm(ctx context.Context, d time.Duration) error {
	m, err := w.run(ctx, w.cyclesFor(d))
	if err != nil {
		return err
	}
	if m.failed() > 0 {
		return fmt.Errorf("%d warm-up operations did not verify", m.failed())
	}
	return nil
}

func (w *ingestWorkload) measure(ctx context.Context, d time.Duration) (*measured, error) {
	m, err := w.run(ctx, w.cyclesFor(d))
	if err != nil {
		return nil, err
	}
	// The footprint is read after a final compaction, outside the window,
	// so it does not depend on where in the cadence the run stopped.
	if err := w.compact(); err != nil {
		return nil, err
	}
	if hs := w.srv.Hub().Stats(); hs.EventsDropped != 0 {
		return nil, fmt.Errorf("hub dropped %d subscriber events", hs.EventsDropped)
	}
	return m, nil
}

func (w *ingestWorkload) liveRecords() int {
	return len(w.base) + w.appended*w.cfg.scale.Batch
}

func (w *ingestWorkload) diskBytesPerRecord() (float64, error) {
	n, err := dirBytes(w.dir, "")
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(w.liveRecords()), nil
}

func (w *ingestWorkload) info() map[string]any {
	disk, _ := dirBytes(w.dir, "")
	return map[string]any{
		"base_records":      len(w.base),
		"batch_records":     w.cfg.scale.Batch,
		"batches_appended":  w.appended,
		"live_records":      w.liveRecords(),
		"standing_windows":  len(w.standing),
		"compactions":       len(w.compactMS),
		"compact_ms_median": median(w.compactMS),
		"disk_bytes":        disk,
	}
}
