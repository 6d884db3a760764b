package subscribe

import (
	"context"
	"reflect"
	"testing"
	"time"

	"st4ml/internal/storage"
)

// drainAll takes every update already queued for sub.
func drainAll(t *testing.T, sub *Subscriber) []Update {
	t.Helper()
	var out []Update
	for sub.Pending() > 0 {
		out = append(out, next(t, sub))
	}
	return out
}

// manifestReads returns how many manifest diffs src has served.
func manifestReads(src *fakeSource) int {
	src.mu.Lock()
	defer src.mu.Unlock()
	return src.manifests
}

// TestNotifyMatchesManifestDiff pins the equivalence the event-fed path
// rests on: the same commits, delivered once as OnCommit events and once
// as polls, produce the same update stream for every subscriber — and the
// event-fed hub reads the manifest only on first sight and on compaction.
func TestNotifyMatchesManifestDiff(t *testing.T) {
	type side struct {
		src  *fakeSource
		hub  *Hub
		subs []*Subscriber
	}
	windows := []struct{ minx, maxx float64 }{{0, 10}, {5, 50}, {0, 100}}
	newSide := func() *side {
		s := &side{src: newFakeSource(), hub: NewHub(Config{})}
		s.src.commit(0, fakeRec{ID: 0, X: 1, Y: 1, T: 1})
		s.hub.Attach("d", s.src)
		for _, w := range windows {
			sub, err := s.hub.Subscribe("d", window(w.minx, 0, w.maxx, 100, 0, 1000), Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sub.Close)
			s.subs = append(s.subs, sub)
		}
		return s
	}
	fed, polled := newSide(), newSide()
	streams := func(s *side) [][]Update {
		out := make([][]Update, len(s.subs))
		for i, sub := range s.subs {
			out[i] = drainAll(t, sub)
		}
		return out
	}
	if got, want := streams(fed), streams(polled); !reflect.DeepEqual(got, want) {
		t.Fatalf("init streams differ:\n%+v\n%+v", got, want)
	}
	afterInit := manifestReads(fed.src)

	step := func(commit func(*fakeSource) storage.CommitEvent) {
		t.Helper()
		if err := fed.hub.Notify("d", commit(fed.src)); err != nil {
			t.Fatal(err)
		}
		commit(polled.src)
		if err := polled.hub.Poke("d"); err != nil {
			t.Fatal(err)
		}
		got, want := streams(fed), streams(polled)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streams differ:\nevent-fed %+v\npolled    %+v", got, want)
		}
	}
	appendAt := func(id int, x float64, part int) func(*fakeSource) storage.CommitEvent {
		return func(f *fakeSource) storage.CommitEvent {
			return f.commit(part, fakeRec{ID: id, X: x, Y: 1, T: int64(id)},
				fakeRec{ID: id + 1000, X: 200, Y: 1, T: int64(id)})
		}
	}
	for i := 1; i <= 6; i++ {
		step(appendAt(i, float64(i*7), i%3))
	}
	if n := manifestReads(fed.src); n != afterInit {
		t.Fatalf("event-fed appends read the manifest %d times", n-afterInit)
	}
	step((*fakeSource).compact)
	if n := manifestReads(fed.src); n != afterInit+1 {
		t.Fatalf("compaction read the manifest %d times, want 1", n-afterInit)
	}
	for i := 7; i <= 10; i++ {
		step(appendAt(i, float64(i*5), i%2))
	}
	if n := manifestReads(fed.src); n != afterInit+1 {
		t.Fatalf("appends after compaction read the manifest %d times", n-afterInit-1)
	}
	// One resync per subscriber, for the compaction; everything else pushed.
	if st := fed.hub.Stats(); st.EventsPushed == 0 || st.Resyncs != int64(len(windows)) {
		t.Fatalf("event-fed hub stats %+v", st)
	}
}

// TestNotifyFallsBack pins each way an event can fail to follow the
// notifier cursor; every one falls back to the manifest diff and still
// delivers exactly what was committed.
func TestNotifyFallsBack(t *testing.T) {
	setup := func(t *testing.T) (*fakeSource, *Hub, *Subscriber) {
		src := newFakeSource()
		h := NewHub(Config{})
		h.Attach("d", src)
		sub, err := h.Subscribe("d", window(0, 0, 100, 100, 0, 1000), Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sub.Close)
		if u := next(t, sub); u.Kind != KindInit {
			t.Fatalf("first update %+v", u)
		}
		return src, h, sub
	}
	seqs := func(us []Update) []int64 {
		var out []int64
		for _, u := range us {
			if u.Kind != KindBatch {
				t.Fatalf("unexpected %s update", u.Kind)
			}
			out = append(out, u.Seq)
		}
		return out
	}

	t.Run("lost append", func(t *testing.T) {
		src, h, sub := setup(t)
		src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1}) // its event is lost
		ev := src.commit(1, fakeRec{ID: 2, X: 2, Y: 2, T: 2})
		before := manifestReads(src)
		if err := h.Notify("d", ev); err != nil {
			t.Fatal(err)
		}
		if got := seqs(drainAll(t, sub)); !reflect.DeepEqual(got, []int64{0, 1}) {
			t.Fatalf("delivered seqs %v, want [0 1]", got)
		}
		if manifestReads(src) != before+1 {
			t.Fatal("a missed append did not diff the manifest")
		}
	})

	t.Run("skipped generation", func(t *testing.T) {
		// A lost compaction mints no sequence number: the next append's
		// deltas continue the cursor, only its generation gives it away.
		src, h, sub := setup(t)
		src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1})
		if err := h.Poke("d"); err != nil {
			t.Fatal(err)
		}
		src.compact() // its event is lost
		ev := src.commit(1, fakeRec{ID: 2, X: 2, Y: 2, T: 2})
		if err := h.Notify("d", ev); err != nil {
			t.Fatal(err)
		}
		// The resync supersedes the queued first batch (its fence covers it).
		us := drainAll(t, sub)
		if len(us) != 1 || us[0].Kind != KindResync ||
			len(us[0].Parts) != 1 || len(us[0].Parts[0].Records) != 2 {
			t.Fatalf("delivered %+v, want one resync holding both records", us)
		}
	})

	t.Run("non-contiguous seq", func(t *testing.T) {
		src, h, sub := setup(t)
		ev := src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1})
		ev.Deltas[0].Seq += 5 // does not continue the cursor
		before := manifestReads(src)
		if err := h.Notify("d", ev); err != nil {
			t.Fatal(err)
		}
		if got := seqs(drainAll(t, sub)); !reflect.DeepEqual(got, []int64{0}) {
			t.Fatalf("delivered seqs %v, want [0] from the manifest", got)
		}
		if manifestReads(src) != before+1 {
			t.Fatal("a sequence gap did not diff the manifest")
		}
	})

	t.Run("compaction", func(t *testing.T) {
		src, h, sub := setup(t)
		src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1})
		ev := src.compact()
		ev.Generation = 1 // even one that looks contiguous is not an append
		if err := h.Notify("d", ev); err != nil {
			t.Fatal(err)
		}
		if u := next(t, sub); u.Kind != KindResync || len(u.Parts) != 1 {
			t.Fatalf("compaction event delivered %+v, want a resync", u)
		}
	})

	t.Run("detached dataset", func(t *testing.T) {
		src, h, _ := setup(t)
		ev := src.commit(0, fakeRec{ID: 1, X: 1, Y: 1, T: 1})
		if err := h.Notify("other", ev); err != nil {
			t.Fatalf("event for a detached dataset errored: %v", err)
		}
	})
}

// TestNotifyRacesPoll commits a stream of batches, each handed to Notify as
// the commit hook would, while the background poll diffs the manifest as
// fast as it can: every batch must arrive exactly once, in sequence order,
// whichever trigger saw it first.
func TestNotifyRacesPoll(t *testing.T) {
	const batches = 300
	src := newFakeSource()
	h := NewHub(Config{})
	h.Attach("d", src)
	sub, err := h.Subscribe("d", window(0, 0, 100, 100, 0, 1<<20), Options{Queue: 2 * batches})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	next(t, sub) // init

	h.StartPolling(50 * time.Microsecond)
	defer h.StopPolling()
	for i := 0; i < batches; i++ {
		ev := src.commit(i%4, fakeRec{ID: i, X: 1, Y: 1, T: int64(i)})
		if err := h.Notify("d", ev); err != nil {
			t.Fatal(err)
		}
	}
	h.StopPolling()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for want := int64(0); want < batches; want++ {
		u, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("waiting for seq %d: %v", want, err)
		}
		if u.Kind != KindBatch || u.Seq != want || len(u.Records) != 1 {
			t.Fatalf("update %+v, want batch seq %d", u, want)
		}
	}
	if n := sub.Pending(); n != 0 {
		t.Fatalf("%d updates beyond the committed batches", n)
	}
	if st := h.Stats(); st.BatchesMatched != batches || st.EventsDropped != 0 || st.Resyncs != 0 {
		t.Fatalf("stats %+v, want every batch matched once", st)
	}
}
