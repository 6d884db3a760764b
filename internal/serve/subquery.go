package serve

import (
	"context"
	"encoding/binary"
	"errors"
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
// partition subset to execute and the generation fence.
type SubQueryRequest struct {
	QueryRequest
	// Partitions is the partition subset to execute (already pruned by the
	// router). Nil prunes locally from the window.
	Partitions []int `json:"partitions"`
	// Gen and Count fence the dataset generation: Gen is the delta
	// manifest generation the router planned at (0 when the dataset has no
	// delta layer) and Count the total record count it saw.
	Gen   int64 `json:"gen"`
	Count int64 `json:"count"`
}

// subKey is the sub-query result-cache key. It embeds both the catalog
// generation (gen — bumped by any observed reload) and the wire fence, so
// a shard that compacts mid-stream can never serve a stale chunk.
func (q SubQueryRequest) subKey(gen int64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, id := range q.Partitions {
		binary.LittleEndian.PutUint64(buf[:], uint64(id))
		h.Write(buf[:])
	}
	key := fmt.Sprintf("sub|%s|%d|%d,%d|%v,%v,%v,%v|%d,%d|%t,%d|%x",
		q.Dataset, gen, q.Gen, q.Count,
		q.MinX, q.MinY, q.MaxX, q.MaxY, q.TStart, q.TEnd,
		q.Records, q.Limit, h.Sum64())
	if q.Approx {
		key += fmt.Sprintf("|approx:%s,%v,%d,%t", q.Agg, q.Q, q.Res, q.ApproxScan)
	}
	return key
}

// SubQueryResponse is the POST /subquery reply: per-partition chunks at
// the fenced generation, plus the shard's span dump when the request was
// traced (the router grafts it under its RPC span).
type SubQueryResponse struct {
	Shard     string              `json:"shard,omitempty"`
	Gen       int64               `json:"gen"`
	Count     int64               `json:"count"`
	Cache     string              `json:"cache"`
	ElapsedMS float64             `json:"elapsed_ms"`
	Parts     []stdata.PartResult `json:"parts"`
	// Approx is the shard's mergeable partial envelope (approx=true
	// sub-queries); the router merges all shards' partials and finalizes.
	Approx *summary.Partial `json:"approx,omitempty"`
	Spans  []trace.WireSpan `json:"spans,omitempty"`
}

// errDraining is the refusal a draining daemon answers new work with.
var errDraining = errors.New("serve: draining")

func (s *Server) handleSubquery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	var req SubQueryRequest
	if err := readJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("explain") == "1" {
		req.Explain = true
	}
	s.subqueries.Add(1)
	resp, status, err := s.runSubquery(r.Context(), req)
	if err != nil {
		if status >= http.StatusInternalServerError && status != http.StatusGatewayTimeout {
			s.queryErrors.Add(1)
		}
		writeError(w, status, err)
		return
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// runSubquery resolves, fences, admits, and executes one sub-query.
func (s *Server) runSubquery(reqCtx context.Context, req SubQueryRequest) (SubQueryResponse, int, error) {
	d, ok := s.catalog.Get(req.Dataset)
	if !ok {
		return SubQueryResponse{}, http.StatusNotFound,
			fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	v, err := d.revalidate()
	if err != nil {
		return SubQueryResponse{}, http.StatusInternalServerError, err
	}
	s.noteGeneration(d, v)
	meta := v.meta
	if meta.Generation != req.Gen || meta.TotalCount != req.Count {
		s.genConflicts.Add(1)
		return SubQueryResponse{}, http.StatusConflict,
			fmt.Errorf("generation conflict: shard sees gen %d (%d records), sub-query fenced at gen %d (%d records)",
				meta.Generation, meta.TotalCount, req.Gen, req.Count)
	}

	var tr *trace.Tracer
	if req.Explain {
		tr = trace.New()
	}
	root := tr.StartSpan(0, trace.SpanSubquery,
		trace.Str("dataset", req.Dataset),
		trace.Str("shard", s.shardName),
		trace.Int("partitions", int64(len(req.Partitions))))
	resp := SubQueryResponse{Shard: s.shardName, Gen: meta.Generation, Count: meta.TotalCount}

	key := req.subKey(v.gen)
	if !req.NoCache {
		lsp := root.Child(trace.SpanResultLookup)
		hit, ok := s.cache.Get(key)
		lsp.End(trace.Bool("hit", ok))
		if ok {
			s.resultHits.Add(1)
			root.End()
			resp.Cache = "hit"
			if req.Approx {
				resp.Approx = hit.(*summary.Partial)
			} else {
				resp.Parts = hit.([]stdata.PartResult)
			}
			resp.Spans = trace.ToWire(tr.Snapshot())
			return resp, http.StatusOK, nil
		}
	}
	s.resultMisses.Add(1)

	ctx, cancel := context.WithTimeout(reqCtx, s.timeout)
	defer cancel()
	asp := root.Child(trace.SpanAdmission)
	release, err := s.adm.Acquire(ctx)
	asp.End(trace.Bool("acquired", err == nil))
	if errors.Is(err, ErrBusy) {
		root.End(trace.Str("error", err.Error()))
		return SubQueryResponse{}, http.StatusTooManyRequests, err
	}
	if err != nil {
		s.timeouts.Add(1)
		root.End(trace.Str("error", err.Error()))
		return SubQueryResponse{}, http.StatusGatewayTimeout, err
	}

	ectx := s.ctx.WithTracer(tr, root.ID())
	parts := req.Partitions
	if parts == nil {
		parts = []int{}
	}
	type outcome struct {
		res    stdata.QueryResult
		approx *summary.Partial
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		defer release()
		if req.Approx {
			_, p, err := d.Schema.ApproxQuery(ectx, d.Dir, meta, req.Window(), stdata.ApproxRequest{
				Agg: req.Agg, Q: req.Q, Res: req.Res, ScanBoundary: req.ApproxScan,
				Partitions: parts, Partial: true,
			})
			if err == nil && !req.NoCache {
				s.cache.Put(key, p, approxBytes(nil, len(p.Parts))+int64(len(p.CellLo))*24)
			}
			done <- outcome{approx: p, err: err}
			return
		}
		res, err := d.Schema.ServeQuery(ectx, d.Dir, meta, s.fetcher(d, v, ectx), req.Window(),
			stdata.QueryOptions{Records: req.Records, Limit: req.Limit,
				Partitions: parts, PerPartition: true})
		if err == nil && !req.NoCache {
			s.cache.Put(key, res.Parts, partsBytes(res.Parts))
		}
		done <- outcome{res: res, err: err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			root.End(trace.Str("error", out.err.Error()))
			return SubQueryResponse{}, http.StatusInternalServerError, out.err
		}
		if req.Approx {
			root.End(trace.Int("approx_count_hi", out.approx.CountHi))
			resp.Cache = "miss"
			resp.Approx = out.approx
			resp.Spans = trace.ToWire(tr.Snapshot())
			return resp, http.StatusOK, nil
		}
		var selected int64
		for _, pr := range out.res.Parts {
			selected += pr.Selected
		}
		root.End(trace.Int("selected", selected))
		resp.Cache = "miss"
		resp.Parts = out.res.Parts
		resp.Spans = trace.ToWire(tr.Snapshot())
		return resp, http.StatusOK, nil
	case <-ctx.Done():
		s.timeouts.Add(1)
		return SubQueryResponse{}, http.StatusGatewayTimeout,
			fmt.Errorf("serve: sub-query exceeded the %s deadline", s.timeout)
	}
}

// partsBytes estimates a cached chunk set's resident size.
func partsBytes(parts []stdata.PartResult) int64 {
	n := int64(128)
	for _, pr := range parts {
		n += 48
		for _, rec := range pr.Records {
			n += int64(len(rec)) + 24
		}
	}
	return n
}
