// Package trace is the repository's span-based tracing substrate: a
// lightweight, allocation-conscious recorder of what one query (or one
// ingest, or one benchmark run) actually did — which stages ran, which
// partitions were read or pruned, how many bytes crossed the shuffle, which
// task attempts retried or speculated, and where the serving tier's caches
// hit or missed.
//
// The design follows the WarpFlow observation that per-query execution
// visibility must be cheap enough to leave on: a Span is a small handle,
// attributes are typed values (no fmt, no interface boxing of strings and
// ints beyond the Attr struct), and the disabled path — a nil *Tracer, the
// default everywhere — performs zero heap allocations, so code can be
// instrumented unconditionally.
//
// Spans form a tree through parent IDs. Completed spans are appended to the
// owning Tracer and can be exported as a Chrome-compatible trace dump
// (WriteChrome) or aggregated into a per-query explain report (Build).
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies a span within one Tracer. 0 is "no span" (a root).
type SpanID uint64

// attrKind discriminates the typed payload of an Attr.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindStr
	kindBool
)

// Attr is one typed key/value attribute on a span.
type Attr struct {
	Key  string
	kind attrKind
	num  int64
	str  string
}

// Int makes an int64 attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// Str makes a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, str: v} }

// Bool makes a boolean attribute.
func Bool(key string, v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{Key: key, kind: kindBool, num: n}
}

// Value returns the attribute's payload as an any (for export layers).
func (a Attr) Value() any {
	switch a.kind {
	case kindStr:
		return a.str
	case kindBool:
		return a.num != 0
	default:
		return a.num
	}
}

// SpanRecord is one completed span as stored by the Tracer.
type SpanRecord struct {
	ID       SpanID
	Parent   SpanID
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Int returns the int64 (or bool-as-int) attribute named key.
func (r SpanRecord) Int(key string) (int64, bool) {
	for _, a := range r.Attrs {
		if a.Key == key && (a.kind == kindInt || a.kind == kindBool) {
			return a.num, true
		}
	}
	return 0, false
}

// Str returns the string attribute named key.
func (r SpanRecord) Str(key string) (string, bool) {
	for _, a := range r.Attrs {
		if a.Key == key && a.kind == kindStr {
			return a.str, true
		}
	}
	return "", false
}

// BoolAttr returns the boolean attribute named key (false when absent).
func (r SpanRecord) BoolAttr(key string) bool {
	v, ok := r.Int(key)
	return ok && v != 0
}

// End returns the span's completion instant.
func (r SpanRecord) End() time.Time { return r.Start.Add(r.Duration) }

// maxSpans bounds the retained span history, so a tracer accidentally left
// attached to a long-lived daemon context cannot grow without limit. Spans
// beyond the cap are counted in Dropped instead of stored.
const maxSpans = 1 << 20

// Tracer collects completed spans. It is safe for concurrent use. The nil
// *Tracer is a valid no-op tracer: StartSpan returns a nil *Span and
// nothing allocates.
type Tracer struct {
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []SpanRecord
	dropped int64
}

// New builds an empty Tracer.
func New() *Tracer { return &Tracer{} }

// StartSpan begins a span under parent (0 for a root span). The returned
// handle must be completed with End for the span to be recorded. On a nil
// Tracer it returns nil, which every Span method accepts.
func (t *Tracer) StartSpan(parent SpanID, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tr:     t,
		id:     SpanID(t.nextID.Add(1)),
		parent: parent,
		name:   name,
		start:  time.Now(),
	}
	if len(attrs) > 0 {
		// Copy: the variadic backing array must not escape the caller.
		s.attrs = append(make([]Attr, 0, len(attrs)+2), attrs...)
	}
	return s
}

// Snapshot returns a copy of the completed spans in completion order.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were discarded over the retention cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards every recorded span (IDs keep increasing).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.dropped = 0
	t.mu.Unlock()
}

func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, r)
	}
	t.mu.Unlock()
}

// Span is an in-progress span handle. A nil *Span (from a nil Tracer) is a
// no-op: every method returns immediately without allocating. A Span is not
// safe for concurrent mutation; concurrent children are fine.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
}

// ID returns the span's ID, or 0 for a nil span — so children of a no-op
// span become roots of a no-op tracer and nothing breaks.
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Tracer returns the owning tracer (nil for a no-op span) — the hook a
// cluster router uses to Graft a shard's span dump under its RPC span.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Set appends attributes to the span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// Child starts a sub-span of s on the same tracer.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.StartSpan(s.id, name, attrs...)
}

// End completes the span, appending any final attributes, and records it on
// the tracer. End must be called at most once.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.attrs = append(s.attrs, attrs...)
	s.tr.record(SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: d,
		Attrs:    s.attrs,
	})
}
