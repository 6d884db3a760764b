package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

// Query routes one /query, exact or approx: plan against the pinned
// metadata, scatter sub-queries over the owning shards, gather. Both kinds
// share everything but the gather — the replan loop, the deadline and the
// status mapping. The returned error carries the HTTP status
// (serve.StatusOf): a shard's 4xx comes back unchanged.
func (r *Router) Query(ctx context.Context, req serve.QueryRequest) (serve.QueryResponse, error) {
	d, ok := r.catalog.Get(req.Dataset)
	if !ok {
		return serve.QueryResponse{}, serve.Errorf(http.StatusNotFound, "unknown dataset %q", req.Dataset)
	}
	if err := req.Validate(); err != nil {
		return serve.QueryResponse{}, err
	}
	var tr *trace.Tracer
	if req.Explain {
		tr = trace.New()
	}
	root := tr.StartSpan(0, "query", trace.Str("dataset", req.Dataset))
	resp, err := r.route(ctx, d, req, root)
	if err != nil {
		root.End(trace.Str("error", err.Error()))
		return serve.QueryResponse{}, err
	}
	root.End()
	resp.Dataset, resp.Explain = req.Dataset, trace.Build(tr.Snapshot())
	return resp, nil
}

// route is the replan loop under the query deadline: each round plans at
// the current metadata generation and scatters under that fence. A
// generation conflict — some shard saw a compaction or append commit
// mid-scatter — discards the round and replans from fresh metadata,
// bounded by maxReplans. The fence also keys each shard's sub-query
// cache, so a replanned round never reads a chunk of the old generation.
func (r *Router) route(reqCtx context.Context, d *serve.Dataset, req serve.QueryRequest, root *trace.Span) (serve.QueryResponse, error) {
	ctx, cancel := context.WithTimeout(reqCtx, r.timeout)
	defer cancel()
	for replan := 0; ; replan++ {
		meta, _, err := d.Meta()
		if err != nil {
			return serve.QueryResponse{}, err
		}
		plan := serve.SubQueryRequest{QueryRequest: req, Gen: meta.Generation, Count: meta.TotalCount}
		resp, err := r.scatter(ctx, meta, plan, root, replan)
		if serve.StatusOf(err) == http.StatusConflict {
			r.replans.Add(1)
			if replan+1 < maxReplans {
				continue
			}
			return serve.QueryResponse{}, serve.Errorf(http.StatusConflict,
				"cluster: generation moved %d times during one query: %w", replan+1, err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			r.timeouts.Add(1)
			err = &serve.StatusError{Status: http.StatusGatewayTimeout, Err: err}
		}
		return resp, err
	}
}

// shardOutcome is one shard RPC's gathered result.
type shardOutcome struct {
	shard int
	resp  serve.SubQueryResponse
	stats engine.AttemptStats
	err   error
}

// scatter runs one planning + fan-out round at plan's fence and gathers
// the shards' answers. A shard's 409 (generation conflict) returns as such
// so the caller replans.
func (r *Router) scatter(ctx context.Context, meta *storage.Metadata,
	plan serve.SubQueryRequest, root *trace.Span, replan int,
) (serve.QueryResponse, error) {
	w := plan.Window()
	ids := meta.Prune(w.Space, w.Time)
	stats := selection.Stats{
		TotalPartitions:  meta.NumPartitions(),
		LoadedPartitions: len(ids),
	}
	for _, id := range ids {
		stats.LoadedRecords += meta.PartitionCount(id)
		stats.LoadedBytes += meta.PartitionBytes(id)
	}

	// Group the scatter set by owning shard. Prune returns ascending ids
	// and append preserves order, so each group is ascending too.
	groups := map[int][]int{}
	for _, id := range ids {
		si := r.shards.Assign(id)
		groups[si] = append(groups[si], id)
	}
	touched := make([]int, 0, len(groups))
	for si := range groups {
		touched = append(touched, si)
	}
	sort.Ints(touched)

	// The scatter span carries the planning attrs exactly once for the
	// whole stitched tree (shard sub-query spans suppress theirs). It is
	// recorded only for the winning round — a conflicted round's span is
	// abandoned un-ended, so a replanned query never double-counts. An
	// approx scatter reads summaries, not the kept partitions' records, so
	// its span reports no loaded records or bytes.
	attrs := []trace.Attr{
		trace.Int("total_partitions", int64(stats.TotalPartitions)),
		trace.Int("kept_partitions", int64(stats.LoadedPartitions)),
	}
	if !plan.Approx {
		attrs = append(attrs,
			trace.Int("loaded_records", stats.LoadedRecords),
			trace.Int("loaded_bytes", stats.LoadedBytes))
	}
	ssp := root.Child(trace.SpanScatter, append(attrs,
		trace.Int("shards", int64(len(r.shards.Shards))),
		trace.Int("width", int64(len(touched))))...)

	if r.testHookAfterPlan != nil {
		r.testHookAfterPlan()
	}
	if len(touched) > 0 {
		r.scatterWidth.Add(int64(len(touched)))
	}

	// The plan carries Explain through, so shards trace (and ship spans
	// back) exactly when the routed query is traced.
	outs := make([]shardOutcome, len(touched))
	var wg sync.WaitGroup
	for i, si := range touched {
		wg.Add(1)
		go func(i, si int) {
			defer wg.Done()
			outs[i] = r.callShard(ctx, si, groups[si], plan, ssp)
		}(i, si)
	}
	wg.Wait()

	// A conflict anywhere wins over any other failure: the round is void.
	var conflict, failed error
	for _, out := range outs {
		r.hedges.Add(int64(out.stats.Hedges))
		r.failovers.Add(int64(out.stats.Failovers))
		switch {
		case serve.StatusOf(out.err) == http.StatusConflict:
			r.genConflicts.Add(1)
			if conflict == nil {
				conflict = out.err
			}
		case out.err != nil && failed == nil:
			failed = out.err
		}
	}
	if conflict != nil {
		return serve.QueryResponse{}, conflict
	}
	if failed != nil {
		return serve.QueryResponse{}, failed
	}

	resp, err := r.gather(plan, ids, stats, outs)
	if err != nil {
		return serve.QueryResponse{}, err
	}
	// The merged answer is a cache hit when every touched shard served its
	// part from its own sub-query cache; an empty scatter consulted none.
	hits := 0
	for _, out := range outs {
		if out.resp.Cache == "hit" {
			hits++
		}
	}
	resp.Cache = "miss"
	if hits > 0 && hits == len(outs) {
		resp.Cache = "hit"
	}
	ssp.End(trace.Int("replans", int64(replan)))
	return resp, nil
}

// gather folds the shards' answers into one response — the only step
// exact and approx routing do differently.
//
// Exact chunks are keyed by partition id (each record belongs to exactly
// one partition per generation); duplicates from losing hedges are
// dropped, and the rest flatten in the planned, ascending partition order
// — the order a single node encodes in — cut at the query limit. Each
// shard capped its records at the global limit across its own chunks in
// the same order, so every record inside the global prefix survived its
// shard's cap.
//
// Approx partials merge in ascending shard order — shard groups are
// disjoint partition subsets, so provenance concatenates deterministically
// and envelopes add — and finalize exactly as one node would. The router
// emits no approx span of its own: each shard's sub-query carries one,
// grafted under the RPC spans, and a router-side span would double-count
// every total.
func (r *Router) gather(plan serve.SubQueryRequest, ids []int, stats selection.Stats, outs []shardOutcome) (serve.QueryResponse, error) {
	if plan.Approx {
		acc := summary.NewAccumulator(plan.ApproxSpec())
		for _, out := range outs {
			name := r.shards.Shards[out.shard].Name
			if out.resp.Approx == nil {
				return serve.QueryResponse{}, serve.Errorf(http.StatusBadGateway,
					"cluster: shard %s answered an approx sub-query without a partial envelope (old shard version?)", name)
			}
			if err := acc.MergePartial(out.resp.Approx); err != nil {
				return serve.QueryResponse{}, serve.Errorf(http.StatusBadGateway, "cluster: shard %s: %w", name, err)
			}
		}
		return serve.QueryResponse{Approx: acc.Finalize()}, nil
	}
	chunks := make(map[int]stdata.PartResult, len(ids))
	for _, out := range outs {
		for _, pr := range out.resp.Parts {
			if _, dup := chunks[pr.ID]; dup {
				r.dedupDrops.Add(1)
				continue
			}
			chunks[pr.ID] = pr
		}
	}
	res := stdata.QueryResult{Stats: stats}
	ordered := make([]stdata.PartResult, 0, len(chunks))
	for _, id := range ids {
		if pr, ok := chunks[id]; ok {
			res.Stats.SelectedRecords += pr.Selected
			ordered = append(ordered, pr)
		}
	}
	if plan.Records {
		res.Records = stdata.Flatten(ordered, plan.Limit)
	}
	return serve.QueryResponse{QueryResult: res}, nil
}

// callShard issues one shard's sub-query as hedged attempts over its
// replicas: ready replicas are tried first, a failed attempt fails over to
// the next, a silent one gets a hedged duplicate after HedgeAfter, and
// exactly one response commits. The shard's span dump is grafted under the
// RPC span so the stitched tree crosses the process boundary.
func (r *Router) callShard(ctx context.Context, si int, parts []int,
	sub serve.SubQueryRequest, ssp *trace.Span,
) shardOutcome {
	sh := r.shards.Shards[si]
	sub.Partitions = parts
	body, err := json.Marshal(sub)
	if err != nil {
		return shardOutcome{shard: si, err: err}
	}
	order := r.replicaOrder(si)
	rsp := ssp.Child(trace.SpanRPC,
		trace.Str("shard", sh.Name),
		trace.Int("partitions", int64(len(parts))))
	r.rpcs.Add(1)

	resp, ast, err := engine.Hedge(ctx, len(order), r.hedgeAfter,
		func(ctx context.Context, cand, attempt int) (serve.SubQueryResponse, error) {
			return r.post(ctx, si, order[cand], body)
		})

	out := shardOutcome{shard: si, resp: resp, stats: ast}
	winner := ""
	if ast.Winner >= 0 {
		winner = sh.Replicas[order[ast.Winner]]
	}
	if err != nil {
		// A shard's 4xx passes through with its status. Anything else — a
		// transport failure, a 5xx from every replica, the deadline — is
		// the fleet's failure: 502.
		var se *serve.StatusError
		if !errors.As(err, &se) {
			err = serve.Errorf(http.StatusBadGateway, "cluster: shard %s: %w", sh.Name, err)
		}
		out.err = err
		rsp.End(trace.Str("error", err.Error()),
			trace.Int("attempts", int64(ast.Attempts)),
			trace.Int("hedges", int64(ast.Hedges)),
			trace.Int("failovers", int64(ast.Failovers)))
		return out
	}
	var selected int64
	for _, pr := range resp.Parts {
		selected += pr.Selected
	}
	r.graft(resp.Spans, rsp)
	rsp.End(trace.Str("replica", winner),
		trace.Int("attempts", int64(ast.Attempts)),
		trace.Int("hedges", int64(ast.Hedges)),
		trace.Int("failovers", int64(ast.Failovers)),
		trace.Int("selected", selected))
	return out
}

// graft records a shard's span dump under the RPC span's tracer.
func (r *Router) graft(spans []trace.WireSpan, rsp *trace.Span) {
	if rsp == nil || len(spans) == 0 {
		return
	}
	rsp.Tracer().Graft(spans, rsp.ID())
}

// post issues one sub-query attempt against one replica and classifies the
// answer: 200 commits; a 4xx is permanent — the request's fault (or, for
// 409, the generation fence's), which every replica would answer alike —
// and keeps the shard's status and message; anything else fails over.
// Transport failures additionally mark the replica not-ready so later
// queries prefer its peers until a probe revives it.
func (r *Router) post(ctx context.Context, si, ri int, body []byte) (serve.SubQueryResponse, error) {
	rep := r.replicas[si][ri]
	rep.calls.Add(1)
	url := rep.url + "/subquery"
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return serve.SubQueryResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	hresp, err := r.client.Do(hreq)
	if err != nil {
		rep.errs.Add(1)
		rep.ready.Store(false)
		return serve.SubQueryResponse{}, err
	}
	defer hresp.Body.Close()
	switch code := hresp.StatusCode; {
	case code == http.StatusOK:
		body, err := readBody(hresp.Body)
		var out serve.SubQueryResponse
		if err == nil {
			out, err = serve.ParseSubQueryFrame(body)
		}
		if err != nil {
			rep.errs.Add(1)
			return serve.SubQueryResponse{}, fmt.Errorf("decode %s: %w", url, err)
		}
		rep.nanos.Add(time.Since(start).Nanoseconds())
		return out, nil
	case code >= 400 && code < 500:
		rep.errs.Add(1)
		return serve.SubQueryResponse{}, engine.Permanent(&serve.StatusError{
			Status: code, Err: errors.New(readErrorBody(hresp.Body)),
		})
	default:
		rep.errs.Add(1)
		return serve.SubQueryResponse{}, fmt.Errorf("%s: status %d: %s",
			url, hresp.StatusCode, readErrorBody(hresp.Body))
	}
}

// bodyBufs holds the scratch buffers sub-query replies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a reply to EOF, so the connection goes back to the
// keep-alive pool, into a pooled scratch buffer that grows as bytes
// arrive (a Content-Length header is never trusted to size it), and
// returns an exact-size copy: the records a reply decodes to alias its
// body for as long as the merged answer lives, so that buffer cannot be
// pooled.
func readBody(r io.Reader) ([]byte, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		bodyBufs.Put(buf)
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
}

// readErrorBody extracts the {"error": …} message of a non-200 answer.
func readErrorBody(body io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(b))
}
