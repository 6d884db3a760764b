package trace

import (
	"encoding/json"
	"testing"
)

// TestWireRoundTrip pins that a span dump survives the JSON wire form with
// IDs, topology, timing, and every attribute kind intact.
func TestWireRoundTrip(t *testing.T) {
	tr := New()
	root := tr.StartSpan(0, "subquery", Str("shard", "s0"))
	child := root.Child("partition:load", Int("partition", 7))
	child.End(Int("records", 42), Bool("hit", true))
	root.End()

	wire := ToWire(tr.Snapshot())
	b, err := json.Marshal(wire)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back []WireSpan
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	recs := FromWire(back)
	if len(recs) != 2 {
		t.Fatalf("got %d spans, want 2", len(recs))
	}
	// Completion order: child first.
	if recs[0].Name != "partition:load" || recs[1].Name != "subquery" {
		t.Fatalf("names: %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].Parent != recs[1].ID {
		t.Fatalf("child parent %d != root id %d", recs[0].Parent, recs[1].ID)
	}
	if v, ok := recs[0].Int("records"); !ok || v != 42 {
		t.Fatalf("records attr: %d, %t", v, ok)
	}
	if !recs[0].BoolAttr("hit") {
		t.Fatal("hit attr lost")
	}
	if s, ok := recs[1].Str("shard"); !ok || s != "s0" {
		t.Fatalf("shard attr: %q", s)
	}
	orig := tr.Snapshot()
	if !recs[0].Start.Equal(orig[0].Start) || recs[0].Duration != orig[0].Duration {
		t.Fatal("timing lost on the wire")
	}
}

// TestGraft pins that a grafted remote dump is renumbered into the local
// tracer's ID space, re-rooted under the RPC span, and keeps its internal
// parent/child structure — so Build sees one stitched tree.
func TestGraft(t *testing.T) {
	remote := New()
	rroot := remote.StartSpan(0, SpanSubquery)
	rchild := rroot.Child(SpanPartitionLoad, Int("blocks_scanned", 3), Int("raw_bytes", 100))
	rchild.End()
	rroot.End()

	local := New()
	rpc := local.StartSpan(0, SpanRPC, Str("shard", "s1"))
	local.Graft(ToWire(remote.Snapshot()), rpc.ID())
	rpc.End()

	spans := local.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	seen := map[SpanID]bool{}
	for _, s := range spans {
		byName[s.Name] = s
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d after graft", s.ID)
		}
		seen[s.ID] = true
	}
	if byName[SpanSubquery].Parent != rpc.ID() {
		t.Fatalf("remote root parented under %d, want rpc %d", byName[SpanSubquery].Parent, rpc.ID())
	}
	if byName[SpanPartitionLoad].Parent != byName[SpanSubquery].ID {
		t.Fatal("remote child lost its parent on graft")
	}
	// The stitched dump aggregates: remote partition:load counters land in
	// the local explain.
	e := Build(spans)
	if e.BlocksScanned != 3 || e.BytesDecompressed != 100 || e.PartitionLoads != 1 {
		t.Fatalf("stitched explain: %+v", e)
	}
	if e.Scatter == nil || len(e.Scatter.RPCs) != 1 || e.Scatter.RPCs[0].Shard != "s1" {
		t.Fatalf("scatter explain: %+v", e.Scatter)
	}
}

// TestGraftNil pins the no-op paths: nil tracer and empty dumps.
func TestGraftNil(t *testing.T) {
	var tr *Tracer
	tr.Graft([]WireSpan{{ID: 1, Name: "x"}}, 0)
	if ToWire(nil) != nil || FromWire(nil) != nil {
		t.Fatal("empty conversions must stay nil")
	}
	live := New()
	live.Graft(nil, 0)
	if live.Len() != 0 {
		t.Fatal("grafting nothing recorded spans")
	}
}
