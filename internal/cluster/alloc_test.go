package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
)

// gatherAllocCeiling bounds the allocations of the router's read of one
// routed answer: both shards' frames parsed, then gathered. Measured at 23
// for 1,000 and for 4,000 records in 40 parts. Per reply they are the part
// and record-header slices and encoding/json's decode of the envelope (the
// reply it decodes into, its decoder state, the shard and cache strings);
// per answer, the chunk map, the ordered parts and the flattened records.
// None is per record. The JSON sub-reply parser this replaced made 55 and
// 61, growing its record-header slice by doubling.
const gatherAllocCeiling = 26

// TestGatherAllocs pins that the allocations of reading a routed answer —
// ParseSubQueryFrame on two shards' real sub-replies, then gather — do not
// grow with its record count.
func TestGatherAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build allocates per instrumented operation")
	}
	var counts []float64
	for _, records := range []int{1000, 4000} {
		allocs := gatherAllocs(t, records)
		if allocs > gatherAllocCeiling {
			t.Errorf("%d records: %.0f allocs to parse and gather, ceiling %d", records, allocs, gatherAllocCeiling)
		}
		counts = append(counts, allocs)
	}
	if counts[1] > counts[0] {
		t.Errorf("allocs grow with the record count: %.0f for 1000 records, %.0f for 4000", counts[0], counts[1])
	}
}

// gatherAllocs serves a records-record nyc store of 40 partitions from two
// shards, fetches each shard's sub-reply to a full-extent query, and
// measures the allocations of parsing both and gathering them.
func gatherAllocs(t *testing.T, records int) float64 {
	t.Helper()
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	dir := t.TempDir()
	meta, err := sch.Ingest(ctx, datagen.NYC(records, 7), dir, sch.DefaultPlanner(5, 8),
		selection.IngestOptions{Name: "nyc", SampleFrac: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m := ShardMap{}
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(serve.Config{Ctx: ctx, ShardName: fmt.Sprintf("s%d", i)})
		if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		m.Shards = append(m.Shards, Shard{Name: fmt.Sprintf("s%d", i), Replicas: []string{ts.URL}})
	}
	r, err := NewRouter(Config{Shards: m})
	if err != nil {
		t.Fatal(err)
	}

	q := seededWindows(3, 4)[3] // full extent: every record, both shards
	plan := serve.SubQueryRequest{QueryRequest: q, Gen: meta.Generation, Count: meta.TotalCount}
	w := plan.Window()
	ids := meta.Prune(w.Space, w.Time)
	if len(ids) != 40 {
		t.Fatalf("the window keeps %d partitions, want 40", len(ids))
	}
	var bodies [2][]byte
	for si := range bodies {
		sub := plan
		sub.Partitions = nil
		for _, id := range ids {
			if r.shards.Assign(id) == si {
				sub.Partitions = append(sub.Partitions, id)
			}
		}
		b, _ := json.Marshal(sub)
		resp, err := http.Post(m.Shards[si].Replicas[0]+"/subquery", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		bodies[si], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %v", si, resp.StatusCode, err)
		}
	}

	outs := make([]shardOutcome, len(bodies))
	run := func() {
		for si, body := range bodies {
			resp, err := serve.ParseSubQueryFrame(body)
			if err != nil {
				t.Fatal(err)
			}
			outs[si] = shardOutcome{shard: si, resp: resp}
		}
		resp, err := r.gather(plan, ids, selection.Stats{}, outs)
		if err != nil || len(resp.Records) != records {
			t.Fatalf("gathered %d of %d records: %v", len(resp.Records), records, err)
		}
	}
	run()
	return testing.AllocsPerRun(20, run)
}
