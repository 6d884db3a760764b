package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

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

// resultKey is the result-cache key: dataset identity and generation plus
// everything that shapes the response body.
func (q QueryRequest) resultKey(gen int64) string {
	key := fmt.Sprintf("res|%s|%d|%v,%v,%v,%v|%d,%d|%t,%d",
		q.Dataset, gen, q.MinX, q.MinY, q.MaxX, q.MaxY, q.TStart, q.TEnd, q.Records, q.Limit)
	if q.Approx {
		key += fmt.Sprintf("|approx:%s,%v,%d,%t", q.Agg, q.Q, q.Res, q.ApproxScan)
	}
	return key
}

// QueryResponse is the POST /query reply.
type QueryResponse struct {
	Dataset string `json:"dataset"`
	// Cache is "hit" when the result came from the result cache.
	Cache     string  `json:"cache"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Explain is the aggregated execution report of a traced query.
	Explain *trace.Explain `json:"explain,omitempty"`
	// Approx is the approximate-tier answer envelope (approx=true requests).
	Approx *summary.Result `json:"approx,omitempty"`
	stdata.QueryResult
}

// errorResponse is the JSON error body for non-200 statuses.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /subscribe", s.handleSubscribe)
	mux.HandleFunc("POST /subquery", s.handleSubquery)
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// readJSONBody decodes one JSON request body.
func readJSONBody(r *http.Request, dst any) error {
	if err := json.NewDecoder(r.Body).Decode(dst); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	var req QueryRequest
	if err := readJSONBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("explain") == "1" {
		req.Explain = true
	}
	s.queries.Add(1)
	if req.Approx {
		approx, cache, explain, status, err := s.runApprox(r.Context(), req)
		if err != nil {
			if status >= http.StatusInternalServerError && status != http.StatusGatewayTimeout {
				s.queryErrors.Add(1)
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, QueryResponse{
			Dataset:   req.Dataset,
			Cache:     cache,
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Explain:   explain,
			Approx:    approx,
		})
		return
	}
	res, cache, explain, status, err := s.runQuery(r.Context(), req)
	if err != nil {
		if status >= http.StatusInternalServerError && status != http.StatusGatewayTimeout {
			s.queryErrors.Add(1)
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Dataset:     req.Dataset,
		Cache:       cache,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
		Explain:     explain,
		QueryResult: res,
	})
}

// runQuery resolves, admits, and executes one query. It returns the result,
// the cache disposition ("hit"/"miss"), the execution report when the
// request asked for one, and on failure an HTTP status.
func (s *Server) runQuery(reqCtx context.Context, req QueryRequest) (stdata.QueryResult, string, *trace.Explain, int, error) {
	d, ok := s.catalog.Get(req.Dataset)
	if !ok {
		return stdata.QueryResult{}, "", nil, http.StatusNotFound,
			fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	v, err := d.revalidate()
	if err != nil {
		return stdata.QueryResult{}, "", nil, http.StatusInternalServerError, err
	}
	s.noteGeneration(d, v)

	// Per-request tracing: an explain request gets its own Tracer, scoped
	// onto the shared engine via a trace-scoped Context copy. Untraced
	// requests keep tr nil, so every span below is the zero-cost no-op.
	var tr *trace.Tracer
	if req.Explain {
		tr = trace.New()
	}
	root := tr.StartSpan(0, "query", trace.Str("dataset", req.Dataset))

	key := req.resultKey(v.gen)
	if !req.NoCache {
		lsp := root.Child(trace.SpanResultLookup)
		hit, ok := s.cache.Get(key)
		lsp.End(trace.Bool("hit", ok))
		if ok {
			s.resultHits.Add(1)
			root.End()
			return hit.(stdata.QueryResult), "hit", trace.Build(tr.Snapshot()), http.StatusOK, nil
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
	if errors.Is(err, ErrBusy) {
		root.End(trace.Str("error", err.Error()))
		return stdata.QueryResult{}, "", nil, http.StatusTooManyRequests, err
	}
	if err != nil {
		s.timeouts.Add(1)
		root.End(trace.Str("error", err.Error()))
		return stdata.QueryResult{}, "", nil, http.StatusGatewayTimeout, err
	}

	// Execute on the shared engine. Engine jobs are not preemptible, so on
	// deadline expiry the request is answered 504 while the job drains in
	// the background — it still releases its slot and warms the cache.
	ectx := s.ctx.WithTracer(tr, root.ID())
	type outcome struct {
		res stdata.QueryResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer release()
		res, err := d.Schema.ServeQuery(ectx, d.Dir, v.meta, s.fetcher(d, v, ectx), req.Window(),
			stdata.QueryOptions{Records: req.Records, Limit: req.Limit})
		if err == nil && !req.NoCache {
			s.cache.Put(key, res, resultBytes(res))
		}
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			root.End(trace.Str("error", out.err.Error()))
			return stdata.QueryResult{}, "", nil, http.StatusInternalServerError, out.err
		}
		root.End()
		return out.res, "miss", trace.Build(tr.Snapshot()), http.StatusOK, nil
	case <-ctx.Done():
		s.timeouts.Add(1)
		return stdata.QueryResult{}, "", nil, http.StatusGatewayTimeout,
			fmt.Errorf("serve: query exceeded the %s deadline", s.timeout)
	}
}

// fetcher returns the cache-aware partition loader for one query. A
// partition's live view is assembled from cached files: the base (records +
// R-tree) and each attached delta (records + boxes), each keyed by its file
// name, so an append costs a read of only the deltas it wrote and a
// compaction only the bases it rewrote. Misses read the disk exactly once
// per file even under concurrent identical queries. ectx carries the
// request's trace scope.
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
		seg, err := s.cache.GetOrLoad(partKey(d.Name, v.epoch, dm.File), func() (any, int64, error) {
			p, rst, err := d.Schema.LoadDelta(d.Dir, v.meta, dm)
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

// partKey is the cache key of one decoded partition file, base or delta,
// of dataset name at an ingest epoch.
func partKey(name string, epoch int64, file string) string {
	return "part|" + name + "|" + strconv.FormatInt(epoch, 10) + "|" + file
}

// resultBytes estimates a cached result's resident size.
func resultBytes(res stdata.QueryResult) int64 {
	n := int64(128)
	for _, rec := range res.Records {
		n += int64(len(rec)) + 24
	}
	return n
}

// runApprox resolves, admits, and executes one approximate aggregate query
// against the dataset's compaction-time summaries. Same admission, caching,
// and tracing discipline as runQuery; the answer is the estimate±bound
// envelope, never records.
func (s *Server) runApprox(reqCtx context.Context, req QueryRequest) (*summary.Result, string, *trace.Explain, int, error) {
	d, ok := s.catalog.Get(req.Dataset)
	if !ok {
		return nil, "", nil, http.StatusNotFound, fmt.Errorf("unknown dataset %q", req.Dataset)
	}
	v, err := d.revalidate()
	if err != nil {
		return nil, "", nil, http.StatusInternalServerError, err
	}
	s.noteGeneration(d, v)

	var tr *trace.Tracer
	if req.Explain {
		tr = trace.New()
	}
	root := tr.StartSpan(0, "query", trace.Str("dataset", req.Dataset))

	key := req.resultKey(v.gen)
	if !req.NoCache {
		lsp := root.Child(trace.SpanResultLookup)
		hit, ok := s.cache.Get(key)
		lsp.End(trace.Bool("hit", ok))
		if ok {
			s.resultHits.Add(1)
			root.End()
			return hit.(*summary.Result), "hit", trace.Build(tr.Snapshot()), http.StatusOK, nil
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
		return nil, "", nil, http.StatusTooManyRequests, err
	}
	if err != nil {
		s.timeouts.Add(1)
		root.End(trace.Str("error", err.Error()))
		return nil, "", nil, http.StatusGatewayTimeout, err
	}

	ectx := s.ctx.WithTracer(tr, root.ID())
	type outcome struct {
		res *summary.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer release()
		res, _, err := d.Schema.ApproxQuery(ectx, d.Dir, v.meta, req.Window(), stdata.ApproxRequest{
			Agg: req.Agg, Q: req.Q, Res: req.Res, ScanBoundary: req.ApproxScan,
		})
		if err == nil && !req.NoCache {
			s.cache.Put(key, res, approxBytes(res.Cells, len(res.Parts)))
		}
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			root.End(trace.Str("error", out.err.Error()))
			return nil, "", nil, http.StatusInternalServerError, out.err
		}
		root.End()
		return out.res, "miss", trace.Build(tr.Snapshot()), http.StatusOK, nil
	case <-ctx.Done():
		s.timeouts.Add(1)
		return nil, "", nil, http.StatusGatewayTimeout,
			fmt.Errorf("serve: query exceeded the %s deadline", s.timeout)
	}
}

// approxBytes estimates a cached approx envelope's resident size.
func approxBytes(cells []summary.Cell, parts int) int64 {
	return 256 + int64(len(cells))*72 + int64(parts)*56
}

// noteGeneration eagerly drops a dataset's stale cache entries when its
// catalog generation moves (a re-ingest, delta append, or compaction was
// detected): every cached result, and every cached partition file the new
// view no longer references — folded-in deltas, superseded bases, anything
// from an older ingest epoch. Files the view still references stay, so an
// append evicts nothing. Without the drop, stale entries would linger in
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
			live[partKey(d.Name, v.epoch, dm.File)] = true
		}
	}
	s.cache.DropPrefixExcept("part|"+d.Name+"|", live)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.catalog.List())
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
	writeJSON(w, http.StatusOK, MetricsResponse{
		Server:    s.Stats(),
		Cache:     s.cache.Stats(),
		Admission: s.adm.Stats(),
		Subscribe: s.hub.Stats(),
		Engine:    snap,
	})
}

// handleHealthz is the liveness probe: green as long as the process can
// answer HTTP at all, draining included.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 503 while draining, so a cluster
// router stops routing to this shard before its listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
