package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// recorder keeps the replay's spans in memory; they are written out once,
// when the replay ends. Spans are recorded from the benchmark's own files,
// around the calls into each layer — spans inside the program are a later
// change.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one timed call: which layer function, on behalf of which op, and
// the span that caused it (0 for an op's root).
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a started span.
type open struct {
	r  *recorder
	id int
}

// start opens a span named name for op under parent (nil for the root).
func (r *recorder) start(parent *open, op int, name string) *open {
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: pid, Op: op, Name: name, Start: time.Since(r.epoch)})
	r.mu.Unlock()
	return &open{r: r, id: id}
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	now := time.Since(o.r.epoch)
	o.r.mu.Lock()
	s := &o.r.spans[o.id-1]
	s.End = now
	d := s.End - s.Start
	o.r.mu.Unlock()
	return d
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(parent *open, op int, name string, fn func()) time.Duration {
	sp := r.start(parent, op, name)
	fn()
	return sp.end()
}

// overheadShare estimates what recording cost the replay: the spans it
// recorded times the cost of one span, measured on a scratch recorder, as
// a share of wall. Replaying twice, once untraced, would compare two
// different cache histories instead.
func (r *recorder) overheadShare(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	const calib = 20000
	scratch := newRecorder()
	t0 := time.Now()
	for i := 0; i < calib; i++ {
		scratch.start(nil, i, "calibrate").end()
	}
	perSpan := time.Since(t0) / calib
	return float64(time.Duration(len(r.spans))*perSpan) / float64(wall)
}

// selfTimes returns each span's duration minus the part its children
// cover (children of one span run one after another in the replay, so the
// part covered is their sum).
func (r *recorder) selfTimes() map[int]time.Duration {
	self := make(map[int]time.Duration, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace events (chrome://tracing,
// Perfetto): one complete ("X") event per span, one row per op.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := r.selfTimes()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "op": s.Op,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3,
			},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
