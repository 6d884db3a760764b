package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"st4ml/internal/stdata"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

// This file is the shard side of the cluster protocol: POST /subquery
// executes a window query restricted to an explicit partition subset — the
// slice of the dataset a router's rendezvous hash assigned to this shard —
// and returns per-partition result chunks the router merges exactly-once.
//
// Generation fencing: the router plans a scatter at one dataset generation
// (the delta manifest's counter plus the record count as a weak
// fingerprint) and stamps it on every sub-query. A shard whose view has
// moved — a compaction or append committed mid-scatter — answers 409
// instead of silently mixing generations inside one merged response; the
// router re-plans from fresh metadata.

// SubQueryRequest is the POST /subquery body: a QueryRequest plus the
// partition subset to execute and the generation fence. It is also the
// plan every query kind executes; a /query is one with neither.
type SubQueryRequest struct {
	QueryRequest
	// Partitions is the partition subset to execute (already pruned by the
	// router). Nil prunes locally from the window, as a /query does.
	Partitions []int `json:"partitions"`
	// Gen and Count fence the dataset generation: Gen is the delta
	// manifest generation the router planned at (0 when the dataset has no
	// delta layer) and Count the total record count it saw.
	Gen   int64 `json:"gen"`
	Count int64 `json:"count"`
}

// CacheKey is the one result-cache key builder, for both families: "res"
// (a daemon's /query) and "sub" (a shard's /subquery). It embeds the
// catalog generation gen — bumped by any observed reload — and the wire
// fence, so a shard that compacts mid-stream can never serve a stale chunk
// and a router's replan reads under the new fence, plus everything that
// shapes the answer: window, records and limit, the partition list's hash,
// and the approx spec.
func (q SubQueryRequest) CacheKey(family string, gen int64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range q.Partitions {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	key := fmt.Sprintf("%s|%s|%d|%d,%d|%v,%v,%v,%v|%d,%d|%t,%d|%x",
		family, q.Dataset, gen, q.Gen, q.Count,
		q.MinX, q.MinY, q.MaxX, q.MaxY, q.TStart, q.TEnd,
		q.Records, q.Limit, h.Sum64())
	if q.Approx {
		key += fmt.Sprintf("|approx:%s,%v,%d,%t", q.Agg, q.Q, q.Res, q.ApproxScan)
	}
	return key
}

// SubQueryResponse is the POST /subquery reply: per-partition chunks at
// the fenced generation, plus the shard's span dump when the request was
// traced (the router grafts it under its RPC span). It crosses the hop as
// one binary frame (frame.go): the shard writes it with appendFrame and
// the router reads it with ParseSubQueryFrame, so the records arrive as
// the bytes the shard's encoder wrote, cut out of the body by a table of
// their lengths. The JSON tags shape the frame's envelope, which carries
// every field but Parts.
type SubQueryResponse struct {
	Shard     string              `json:"shard,omitempty"`
	Gen       int64               `json:"gen"`
	Count     int64               `json:"count"`
	Cache     string              `json:"cache"`
	ElapsedMS float64             `json:"elapsed_ms"`
	Parts     []stdata.PartResult `json:"-"`
	// Approx is the shard's mergeable partial envelope (approx=true
	// sub-queries); the router merges all shards' partials and finalizes.
	Approx *summary.Partial `json:"approx,omitempty"`
	Spans  []trace.WireSpan `json:"spans,omitempty"`
}

func (s *Server) handleSubquery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SubQueryRequest
	if !s.decode(w, r, &req, &req.Explain) {
		return
	}
	s.subqueries.Add(1)
	val, cache, tr, err := s.execute(r.Context(), req, true)
	if s.fail(w, err) {
		return
	}
	// The fence held, so the shard's view is at the request's generation.
	resp := val.(SubQueryResponse)
	resp.Shard, resp.Gen, resp.Count, resp.Cache = s.shardName, req.Gen, req.Count, cache
	resp.Spans = trace.ToWire(tr.Snapshot())
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.writeReply(w, frameReply, resp.appendFrame)
}
