package trace

import "time"

// This file is the cross-process span transport: a shard executing a
// sub-query records spans on its own Tracer, ships them back inside the
// RPC response as WireSpans, and the router grafts them under its RPC span
// so the stitched tree explains the whole scatter — router, shards, and
// each shard's partition reads — as one query.

// WireAttr is the JSON-transportable form of an Attr.
type WireAttr struct {
	Key string `json:"k"`
	// Kind discriminates the payload: 0 int, 1 string, 2 bool — the
	// attrKind values.
	Kind uint8  `json:"t"`
	Num  int64  `json:"n,omitempty"`
	Str  string `json:"s,omitempty"`
}

// WireSpan is the JSON-transportable form of a SpanRecord. IDs are only
// meaningful within one dump; Graft renumbers them into the receiving
// tracer's ID space.
type WireSpan struct {
	ID      uint64     `json:"id"`
	Parent  uint64     `json:"parent"`
	Name    string     `json:"name"`
	StartNS int64      `json:"start_ns"`
	DurNS   int64      `json:"dur_ns"`
	Attrs   []WireAttr `json:"attrs,omitempty"`
}

// ToWire converts a span dump to its transportable form.
func ToWire(spans []SpanRecord) []WireSpan {
	if len(spans) == 0 {
		return nil
	}
	out := make([]WireSpan, len(spans))
	for i, s := range spans {
		w := WireSpan{
			ID:      uint64(s.ID),
			Parent:  uint64(s.Parent),
			Name:    s.Name,
			StartNS: s.Start.UnixNano(),
			DurNS:   int64(s.Duration),
		}
		if len(s.Attrs) > 0 {
			w.Attrs = make([]WireAttr, len(s.Attrs))
			for j, a := range s.Attrs {
				w.Attrs[j] = WireAttr{Key: a.Key, Kind: uint8(a.kind), Num: a.num, Str: a.str}
			}
		}
		out[i] = w
	}
	return out
}

// FromWire converts transported spans back to records (IDs as shipped).
func FromWire(spans []WireSpan) []SpanRecord {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanRecord, len(spans))
	for i, w := range spans {
		r := SpanRecord{
			ID:       SpanID(w.ID),
			Parent:   SpanID(w.Parent),
			Name:     w.Name,
			Start:    time.Unix(0, w.StartNS),
			Duration: time.Duration(w.DurNS),
		}
		if len(w.Attrs) > 0 {
			r.Attrs = make([]Attr, len(w.Attrs))
			for j, a := range w.Attrs {
				r.Attrs[j] = Attr{Key: a.Key, kind: attrKind(a.Kind), num: a.Num, str: a.Str}
			}
		}
		out[i] = r
	}
	return out
}

// Graft records a remote span dump on t, renumbered into t's ID space and
// re-rooted: spans whose parent is 0 or absent from the dump are parented
// under "under" (the RPC span that carried them). The remote tree's
// internal structure is preserved, so an aggregated Build — or a Chrome
// dump — over the grafted tracer sees one stitched query tree spanning the
// process boundary. A nil tracer drops the dump, matching the no-op span
// path.
func (t *Tracer) Graft(spans []WireSpan, under SpanID) {
	if t == nil || len(spans) == 0 {
		return
	}
	ids := make(map[uint64]SpanID, len(spans))
	for _, w := range spans {
		ids[w.ID] = SpanID(t.nextID.Add(1))
	}
	for _, r := range FromWire(spans) {
		parent, ok := ids[uint64(r.Parent)]
		if !ok || r.Parent == 0 {
			parent = under
		}
		r.ID = ids[uint64(r.ID)]
		r.Parent = parent
		t.record(r)
	}
}
