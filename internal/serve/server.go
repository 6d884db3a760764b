package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/subscribe"
	"st4ml/internal/summary"
	"st4ml/internal/tempo"
	"st4ml/internal/trace"
)

// QueryRequest is the POST /query body: a dataset name, an ST window, and
// result options.
type QueryRequest struct {
	Dataset string  `json:"dataset"`
	MinX    float64 `json:"minx"`
	MinY    float64 `json:"miny"`
	MaxX    float64 `json:"maxx"`
	MaxY    float64 `json:"maxy"`
	TStart  int64   `json:"tstart"`
	TEnd    int64   `json:"tend"`
	// Records returns the matching records, capped at Limit (0 = all).
	Records bool `json:"records"`
	Limit   int  `json:"limit"`
	// NoCache bypasses the result cache (partitions still cache).
	NoCache bool `json:"no_cache"`
	// Explain traces the query and attaches the aggregated execution report
	// to the response (also enabled by the ?explain=1 URL parameter).
	Explain bool `json:"explain"`
	// Approx answers an aggregate from compaction-time summaries instead of
	// returning records: the response's approx envelope guarantees the exact
	// answer lies within estimate±bound. Records/Limit are ignored.
	Approx bool `json:"approx,omitempty"`
	// Agg is the approximate aggregate: count (default), hist, or quantile.
	Agg string `json:"agg,omitempty"`
	// Q is the quantile in [0,1] (agg=quantile).
	Q float64 `json:"q,omitempty"`
	// Res is the histogram cells-per-axis (agg=hist).
	Res int `json:"res,omitempty"`
	// ApproxScan scans boundary-straddling blocks exactly for a tighter
	// envelope at the cost of extra reads.
	ApproxScan bool `json:"approx_scan,omitempty"`
}

// Window converts the request coordinates to a selection window.
func (q QueryRequest) Window() selection.Window {
	return selection.Window{
		Space: geom.Box(q.MinX, q.MinY, q.MaxX, q.MaxY),
		Time:  tempo.New(q.TStart, q.TEnd),
	}
}

// ApproxSpec is the request's approximate aggregate over its window.
func (q QueryRequest) ApproxSpec() summary.Spec {
	return summary.Spec{Window: q.Window().Box(), Agg: q.Agg, Q: q.Q, Res: q.Res}
}

// Validate rejects a malformed approx spec — an unknown agg, q outside
// [0,1] — with 400 before any work, on every tier. Whether the schema has
// the value a quantile needs is the executing schema's call (ApproxQuery,
// also 400).
func (q QueryRequest) Validate() error {
	if !q.Approx {
		return nil
	}
	return badSpec(q.ApproxSpec().Validate(true))
}

// badSpec answers an invalid approx spec 400: the request is at fault.
func badSpec(err error) error {
	if errors.Is(err, summary.ErrSpec) {
		return &StatusError{Status: http.StatusBadRequest, Err: err}
	}
	return err
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Dataset string `json:"dataset"`
	// Cache is "hit" when the result came from the result cache; a routed
	// answer is a hit when every touched shard's part was.
	Cache     string  `json:"cache"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Explain is the aggregated execution report of a traced query.
	Explain *trace.Explain `json:"explain,omitempty"`
	// Approx is the approximate-tier answer envelope (approx=true requests).
	Approx *summary.Result `json:"approx,omitempty"`
	stdata.QueryResult
}

// ResidentBytes estimates the response's size as a cached result.
func (r QueryResponse) ResidentBytes() int64 {
	n := 128 + recordBytes(r.Records)
	for _, pr := range r.Parts {
		n += 48 + recordBytes(pr.Records)
	}
	if r.Approx != nil {
		n += 128 + int64(len(r.Approx.Cells))*72 + int64(len(r.Approx.Parts))*56
	}
	return n
}

func recordBytes(recs []json.RawMessage) int64 {
	n := int64(0)
	for _, rec := range recs {
		n += int64(len(rec)) + 24
	}
	return n
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.QueryHandler(s.query))
	mux.HandleFunc("POST /subscribe", s.handleSubscribe)
	mux.HandleFunc("POST /subquery", s.handleSubquery)
	mux.HandleFunc("GET /datasets", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.catalog.List())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.Probes(mux)
	return mux
}

// query answers one /query through the shared pipeline: a sub-query plan
// with no partition list and no fence.
func (s *Server) query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	val, cache, tr, err := s.execute(ctx, SubQueryRequest{QueryRequest: req}, false)
	if err != nil {
		return QueryResponse{}, err
	}
	resp := val.(QueryResponse)
	resp.Dataset, resp.Cache, resp.Explain = req.Dataset, cache, trace.Build(tr.Snapshot())
	return resp, nil
}

// execute is the one request pipeline behind /query, exact and approx, and
// /subquery in both modes: resolve, validate, revalidate, noteGeneration,
// fence (409, sub-queries only), root span, result-cache get, admission
// (429 queue full, 504 deadline), run on the shared engine under the
// deadline, cache put. Only the root span, the cache key family, the fence
// and the run step differ between /query (sub false) and /subquery. It
// returns the answer (a QueryResponse or SubQueryResponse body), the cache
// disposition ("hit"/"miss"), and the request's tracer (nil unless
// req.Explain); a failure carries its HTTP status (StatusOf).
func (s *Server) execute(reqCtx context.Context, req SubQueryRequest, sub bool) (any, string, *trace.Tracer, error) {
	d, ok := s.catalog.Get(req.Dataset)
	if !ok {
		return nil, "", nil, Errorf(http.StatusNotFound, "unknown dataset %q", req.Dataset)
	}
	if err := req.Validate(); err != nil {
		return nil, "", nil, err
	}
	v, err := d.revalidate()
	if err != nil {
		return nil, "", nil, err
	}
	s.noteGeneration(d, v)
	family, span := "res", "query"
	attrs := []trace.Attr{trace.Str("dataset", req.Dataset)}
	if sub {
		if meta := v.meta; meta.Generation != req.Gen || meta.TotalCount != req.Count {
			s.genConflicts.Add(1)
			return nil, "", nil, Errorf(http.StatusConflict,
				"generation conflict: shard sees gen %d (%d records), sub-query fenced at gen %d (%d records)",
				meta.Generation, meta.TotalCount, req.Gen, req.Count)
		}
		family, span = "sub", trace.SpanSubquery
		attrs = append(attrs, trace.Str("shard", s.shardName), trace.Int("partitions", int64(len(req.Partitions))))
	}

	// Per-request tracing: an explain request gets its own Tracer, scoped
	// onto the shared engine via a trace-scoped Context copy. Untraced
	// requests keep tr nil, so every span below is the zero-cost no-op.
	var tr *trace.Tracer
	if req.Explain {
		tr = trace.New()
	}
	root := tr.StartSpan(0, span, attrs...)

	// Only a cacheable request pays for its key.
	var key string
	if !req.NoCache {
		key = req.CacheKey(family, v.gen)
		lsp := root.Child(trace.SpanResultLookup)
		hit, ok := s.cache.Get(key)
		lsp.End(trace.Bool("hit", ok))
		if ok {
			s.resultHits.Add(1)
			root.End()
			return hit, "hit", tr, nil
		}
	}
	s.resultMisses.Add(1)

	// Admission: bounded in-flight execution with a bounded wait queue,
	// under the per-request deadline.
	ctx, cancel := context.WithTimeout(reqCtx, s.timeout)
	defer cancel()
	asp := root.Child(trace.SpanAdmission)
	release, err := s.adm.Acquire(ctx)
	asp.End(trace.Bool("acquired", err == nil))
	if err != nil {
		status := http.StatusTooManyRequests
		if !errors.Is(err, ErrBusy) {
			s.timeouts.Add(1)
			status = http.StatusGatewayTimeout
		}
		root.End(trace.Str("error", err.Error()))
		return nil, "", nil, &StatusError{Status: status, Err: err}
	}

	// Execute on the shared engine. Engine jobs are not preemptible, so on
	// deadline expiry the request is answered 504 while the job drains in
	// the background — it still releases its slot and warms the cache.
	ectx := s.ctx.WithTracer(tr, root.ID())
	type outcome struct {
		val any
		end []trace.Attr
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer release()
		val, size, end, err := s.run(ectx, d, v, req, sub)
		if err == nil && !req.NoCache {
			s.cache.Put(key, val, size)
		}
		done <- outcome{val, end, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			root.End(trace.Str("error", out.err.Error()))
			return nil, "", nil, out.err
		}
		root.End(out.end...)
		return out.val, "miss", tr, nil
	case <-ctx.Done():
		s.timeouts.Add(1)
		return nil, "", nil, Errorf(http.StatusGatewayTimeout, "serve: query exceeded the %s deadline", s.timeout)
	}
}

// run is the pipeline's one varying step: execute req on the shared engine
// and return the answer body, its resident size for the result cache, and
// the root span's closing attrs. A sub-query answers per-partition chunks
// or a mergeable partial envelope; a /query the flat result or the
// finalized envelope.
func (s *Server) run(ectx *engine.Context, d *Dataset, v view, req SubQueryRequest, sub bool) (any, int64, []trace.Attr, error) {
	if req.Approx {
		res, p, err := d.Schema.ApproxQuery(ectx, d.Dir, v.meta, req.Window(), stdata.ApproxRequest{
			Agg: req.Agg, Q: req.Q, Res: req.Res, ScanBoundary: req.ApproxScan,
			Partitions: req.Partitions, Partial: sub,
		})
		if err != nil {
			return nil, 0, nil, badSpec(err)
		}
		if sub {
			size := 256 + int64(len(p.Parts))*56 + int64(len(p.CellLo))*24
			return SubQueryResponse{Approx: p}, size, []trace.Attr{trace.Int("approx_count_hi", p.CountHi)}, nil
		}
		resp := QueryResponse{Approx: res}
		return resp, resp.ResidentBytes(), nil, nil
	}
	res, err := d.Schema.ServeQuery(ectx, d.Dir, v.meta, s.fetcher(d, v, ectx), req.Window(),
		stdata.QueryOptions{Records: req.Records, Limit: req.Limit, Partitions: req.Partitions, PerPartition: sub})
	if err != nil {
		return nil, 0, nil, err
	}
	if !req.NoCache {
		res.Own() // cached past the query: no pinned arena stays alive for it
	}
	resp := QueryResponse{QueryResult: res}
	if sub {
		return SubQueryResponse{Parts: res.Parts}, resp.ResidentBytes(),
			[]trace.Attr{trace.Int("selected", res.Stats.SelectedRecords)}, nil
	}
	return resp, resp.ResidentBytes(), nil, nil
}

// fetcher returns the cache-aware partition loader for one query. A
// partition's live view is assembled from cached segments: the base and
// each attached delta (records, their boxes and one box per run of 16),
// the base keyed by its file name and a delta by its file and run
// (DeltaMeta.Key), so an append costs a read of only the deltas it wrote
// and a compaction only the bases it rewrote. Misses read the disk exactly
// once per segment even under concurrent identical queries. ectx carries
// the request's trace scope.
func (s *Server) fetcher(d *Dataset, v view, ectx *engine.Context) func(id int) (stdata.Partition, error) {
	return func(id int) (stdata.Partition, error) {
		fsp := ectx.StartSpan(trace.SpanPartitionFetch, trace.Int("partition", int64(id)))
		p, err := s.fetchLive(d, v, ectx, id)
		if err != nil {
			fsp.End(trace.Str("error", err.Error()))
			return nil, err
		}
		fsp.End()
		return p, nil
	}
}

// fetchLive assembles partition id's live view. A base miss is one
// partition:load span; the deltas that missed are summed into one
// delta:read span, so explain and the engine counters see the same reads.
func (s *Server) fetchLive(d *Dataset, v view, ectx *engine.Context, id int) (stdata.Partition, error) {
	base, err := s.cache.GetOrLoad(partKey(d.Name, v.epoch, v.meta.Partitions[id].File), func() (any, int64, error) {
		lsp := ectx.StartSpan(trace.SpanPartitionLoad, trace.Int("partition", int64(id)))
		s.partitionLoads.Add(1)
		p, rst, err := d.Schema.LoadBase(d.Dir, v.meta, id)
		if err != nil {
			lsp.End(trace.Str("error", err.Error()))
			return nil, 0, err
		}
		ectx.Metrics.AddBlockRead(int64(rst.BlocksScanned), int64(rst.BlocksPruned), rst.RawBytes)
		if rst.RecordsPruned > 0 {
			ectx.Metrics.AddRecordsPruned(rst.RecordsPruned)
		}
		lsp.End(trace.Int("records", int64(p.Len())), trace.Int("bytes", p.SizeBytes()),
			trace.Int("blocks", int64(rst.Blocks)),
			trace.Int("blocks_scanned", int64(rst.BlocksScanned)),
			trace.Int("blocks_pruned", int64(rst.BlocksPruned)),
			trace.Int("raw_bytes", rst.RawBytes),
			trace.Int("records_pruned", rst.RecordsPruned))
		return p, p.SizeBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	deltas := v.meta.Deltas(id)
	if len(deltas) == 0 {
		return base.(stdata.Partition), nil
	}
	segs := make([]stdata.Partition, len(deltas))
	var read storage.ReadStats // the delta files this fetch read from disk
	for i, dm := range deltas {
		seg, err := s.cache.GetOrLoad(partKey(d.Name, v.epoch, dm.Key()), func() (any, int64, error) {
			p, rst, err := d.Schema.LoadDelta(d.Dir, dm)
			if err != nil {
				return nil, 0, err
			}
			read.Add(rst)
			return p, p.SizeBytes(), nil
		})
		if err != nil {
			return nil, err
		}
		segs[i] = seg.(stdata.Partition)
	}
	if read.DeltasRead > 0 {
		ectx.Metrics.AddBlockRead(int64(read.BlocksScanned), int64(read.BlocksPruned), read.RawBytes)
		ectx.Metrics.AddDeltaRead(int64(read.DeltasRead), read.DeltaRecords)
		ectx.StartSpan(trace.SpanDeltaRead,
			trace.Int("partition", int64(id)),
			trace.Int("files", int64(read.DeltasRead)),
			trace.Int("records", read.DeltaRecords),
			trace.Int("blocks_scanned", int64(read.BlocksScanned)),
			trace.Int("blocks_pruned", int64(read.BlocksPruned)),
			trace.Int("raw_bytes", read.RawBytes)).End()
	}
	return d.Schema.LiveView(base.(stdata.Partition), segs)
}

// partKey is the cache key of one decoded segment — a base file, or a
// delta's DeltaMeta.Key — of dataset name at an ingest epoch.
func partKey(name string, epoch int64, file string) string {
	return "part|" + name + "|" + strconv.FormatInt(epoch, 10) + "|" + file
}

// noteGeneration eagerly drops a dataset's stale cache entries when its
// catalog generation moves (a re-ingest, delta append, or compaction was
// detected): every cached result, and every cached base file or delta run
// the new view no longer references — folded-in deltas, superseded bases,
// anything from an older ingest epoch. Segments the view still references
// stay, so an append evicts nothing. Without the drop, stale entries would linger in
// the budget until LRU aged them out. A view older than one already noted
// is ignored.
func (s *Server) noteGeneration(d *Dataset, v view) {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	last := s.lastGen[d.Name]
	if v.gen <= last {
		return
	}
	s.lastGen[d.Name] = v.gen
	if last == 0 {
		return
	}
	s.cache.DropPrefix("res|" + d.Name + "|")
	s.cache.DropPrefix("sub|" + d.Name + "|")
	live := make(map[string]bool, len(v.meta.Partitions)+v.meta.DeltaCount())
	for i, p := range v.meta.Partitions {
		live[partKey(d.Name, v.epoch, p.File)] = true
		for _, dm := range v.meta.Deltas(i) {
			live[partKey(d.Name, v.epoch, dm.Key())] = true
		}
	}
	s.cache.DropPrefixExcept("part|"+d.Name+"|", live)
}

// MetricsResponse is the GET /metrics body: every counter family the
// daemon maintains, engine included, in one dump.
type MetricsResponse struct {
	Server    ServerStats     `json:"server"`
	Cache     CacheStats      `json:"cache"`
	Admission AdmissionStats  `json:"admission"`
	Subscribe subscribe.Stats `json:"subscribe"`
	Engine    engine.Snapshot `json:"engine"`
}

// maxMetricsStages bounds the per-stage history included in /metrics.
const maxMetricsStages = 16

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.ctx.Metrics.Snapshot()
	if len(snap.Stages) > maxMetricsStages {
		snap.StagesDropped += int64(len(snap.Stages) - maxMetricsStages)
		snap.Stages = snap.Stages[len(snap.Stages)-maxMetricsStages:]
	}
	WriteJSON(w, http.StatusOK, MetricsResponse{
		Server:    s.Stats(),
		Cache:     s.cache.Stats(),
		Admission: s.adm.Stats(),
		Subscribe: s.hub.Stats(),
		Engine:    snap,
	})
}
