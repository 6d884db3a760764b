// Command stquery runs an ad-hoc ST range selection against a dataset
// ingested with stload, reporting how much the metadata index pruned and
// how many records matched.
//
// Usage:
//
//	stquery -dir /data/nyc -dataset nyc \
//	    -minx -74.0 -miny 40.7 -maxx -73.9 -maxy 40.8 \
//	    -tstart 1357000000 -tend 1360000000
//
// With -server it queries a running stserved daemon or strouter cluster
// router over HTTP instead of reading the dataset directly — the same
// window flags and the same -explain report, which against a router renders
// the stitched router→shard→partition:read tree:
//
//	stquery -server http://localhost:8080 -dataset nyc -explain ...
//
// With -subscribe (requires -server) the window becomes a standing
// subscription: the daemon streams an init snapshot followed by
// incremental batch/resync events over SSE as delta commits land, until
// -events updates have arrived (0 streams until interrupted):
//
//	stquery -server http://localhost:8080 -dataset nyc -subscribe -events 10 ...
//
// With -pointpat the selected window feeds a distributed point-pattern
// statistic instead of a plain count: k estimates the edge-corrected
// space-time Ripley's K function over a -radii × -lags grid (with
// partition halo exchange for exact boundary pairs), getis computes
// Getis-Ord Gi* hot-spot z-scores over a -cells × -tslots raster.
// -pointpat-brute additionally runs the single-partition brute-force
// oracle and fails on any bit divergence:
//
//	stquery -dir /data/nyc -dataset nyc -pointpat k -radii 0.005,0.01 -lags 1800,3600 ...
//	stquery -dir /data/nyc -dataset nyc -pointpat getis -cells 16 -tslots 8 -zthresh 2.5 ...
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/instance"
	"st4ml/internal/pointpat"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/subscribe"
	"st4ml/internal/summary"
	"st4ml/internal/tempo"
	"st4ml/internal/trace"
)

func main() {
	var (
		dir       = flag.String("dir", "", "dataset directory (required unless -server)")
		server    = flag.String("server", "", "query a running stserved/strouter at this base URL instead of reading -dir")
		dataset   = flag.String("dataset", "nyc", "schema: "+strings.Join(stdata.SchemaNames(), "|"))
		minx      = flag.Float64("minx", -180, "window min longitude")
		miny      = flag.Float64("miny", -90, "window min latitude")
		maxx      = flag.Float64("maxx", 180, "window max longitude")
		maxy      = flag.Float64("maxy", 90, "window max latitude")
		tstart    = flag.Int64("tstart", 0, "window start (unix seconds)")
		tend      = flag.Int64("tend", 1<<60, "window end (unix seconds)")
		full      = flag.Bool("full-scan", false, "skip metadata pruning (native path)")
		metrics   = flag.Bool("metrics", false, "print the engine counter snapshot after the query")
		explain   = flag.Bool("explain", false, "print the aggregated execution report (partitions pruned, records, tasks, per-stage breakdown)")
		traceFile = flag.String("trace", "", "write a Chrome trace-event dump of the query to this file (open in chrome://tracing or Perfetto)")
		subscr    = flag.Bool("subscribe", false, "register the window as a standing subscription on -server and stream pushed updates (SSE)")
		events    = flag.Int("events", 0, "with -subscribe: exit after this many updates (0 = stream until interrupted)")
		approx    = flag.Bool("approx", false, "answer an aggregate from compaction-time summaries: estimate ± bound, guaranteed to contain the exact answer")
		agg       = flag.String("agg", "count", "with -approx: aggregate (count|hist|quantile)")
		quantile  = flag.Float64("q", 0.5, "with -approx -agg quantile: quantile in [0,1]")
		res       = flag.Int("res", 0, "with -approx -agg hist: histogram cells per axis (0 = default)")
		approxScn = flag.Bool("approx-scan", false, "with -approx: scan boundary-straddling blocks exactly for a tighter bound")
		pointpatS = flag.String("pointpat", "", "point-pattern statistic over the selected window: k (space-time Ripley's K) or getis (Getis-Ord Gi* hot spots)")
		radii     = flag.String("radii", "0.005,0.01,0.02", "with -pointpat k: ascending spatial radii, coordinate units (comma-separated)")
		lags      = flag.String("lags", "1800,3600,7200", "with -pointpat k: ascending temporal lags, seconds (comma-separated)")
		ppParts   = flag.Int("pointpat-parts", 0, "with -pointpat: ST partition / parallelism count (0 = engine default)")
		ppBrute   = flag.Bool("pointpat-brute", false, "with -pointpat: also run the single-partition brute-force oracle and verify bit-for-bit agreement")
		cells     = flag.Int("cells", 8, "with -pointpat getis: raster cells per spatial axis")
		tslots    = flag.Int("tslots", 6, "with -pointpat getis: raster time slots")
		nbrCells  = flag.Int("nbr-cells", 1, "with -pointpat getis: spatial neighborhood radius, cells")
		nbrSlots  = flag.Int("nbr-slots", 1, "with -pointpat getis: temporal neighborhood radius, slots")
		zThresh   = flag.Float64("zthresh", 1.96, "with -pointpat getis: hot-spot z-score threshold")
	)
	flag.Parse()
	if *subscr && *server == "" {
		fmt.Fprintln(os.Stderr, "stquery: -subscribe requires -server")
		os.Exit(2)
	}
	if *pointpatS != "" && *server != "" {
		fmt.Fprintln(os.Stderr, "stquery: -pointpat runs against -dir, not -server")
		os.Exit(2)
	}
	if *server != "" {
		req := serve.QueryRequest{
			Dataset: *dataset,
			MinX:    *minx, MinY: *miny, MaxX: *maxx, MaxY: *maxy,
			TStart: *tstart, TEnd: *tend,
			Explain: *explain,
			Approx:  *approx, Agg: *agg, Q: *quantile, Res: *res, ApproxScan: *approxScn,
		}
		if !*approx {
			req.Agg, req.Q, req.Res, req.ApproxScan = "", 0, 0, false
		}
		var err error
		if *subscr {
			err = subscribeServer(os.Stdout, *server, req, *events)
		} else {
			err = queryServer(os.Stdout, *server, req)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "stquery:", err)
			os.Exit(1)
		}
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "stquery: -dir is required (or -server)")
		os.Exit(2)
	}
	var tr *trace.Tracer
	if *explain || *traceFile != "" {
		tr = trace.New()
	}
	ctx := engine.New(engine.Config{Tracer: tr})
	w := selection.Window{
		Space: geom.Box(*minx, *miny, *maxx, *maxy),
		Time:  tempo.New(*tstart, *tend),
	}
	var err error
	switch {
	case *pointpatS != "":
		err = runPointPat(os.Stdout, ctx, *dataset, *dir, w, pointPatOptions{
			Stat: *pointpatS, Radii: *radii, Lags: *lags,
			Partitions: *ppParts, Brute: *ppBrute,
			Cells: *cells, TSlots: *tslots,
			NbrCells: *nbrCells, NbrSlots: *nbrSlots, ZThresh: *zThresh,
		})
	case *approx:
		var env *summary.Result
		env, err = queryApprox(ctx, *dataset, *dir, w, stdata.ApproxRequest{
			Agg: *agg, Q: *quantile, Res: *res, ScanBoundary: *approxScn,
		})
		if err == nil {
			printApprox(os.Stdout, env)
		}
	default:
		var stats selection.Stats
		stats, err = query(ctx, *dataset, *dir, w, *full)
		if err == nil {
			printStats(os.Stdout, stats)
		}
	}
	if err == nil {
		err = printEpilogue(os.Stdout, ctx, tr, *metrics, *explain, *traceFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stquery:", err)
		os.Exit(1)
	}
}

// printStats renders an exact selection's stats: what was loaded and
// selected, then the block and columnar pruning behind it.
func printStats(w io.Writer, stats selection.Stats) {
	printLoaded(w, stats)
	fmt.Fprintf(w, "blocks: %d/%d scanned (%d pruned); %d bytes decompressed\n",
		stats.BlocksScanned, stats.BlocksTotal, stats.BlocksPruned, stats.DecompressedBytes)
	if stats.RecordsPruned > 0 {
		fmt.Fprintf(w, "records pruned columnar: %d (v3 predicate, skipped before materialization)\n",
			stats.RecordsPruned)
	}
}

// printLoaded renders the partition, record and byte lines every exact
// answer starts with, local or served.
func printLoaded(w io.Writer, stats selection.Stats) {
	fmt.Fprintf(w, "partitions: %d/%d loaded\nrecords: %d loaded, %d selected\nbytes read: %d\n",
		stats.LoadedPartitions, stats.TotalPartitions,
		stats.LoadedRecords, stats.SelectedRecords, stats.LoadedBytes)
}

// printEpilogue ends every local mode: the engine counter snapshot for
// -metrics (the same counters the server's /metrics and stbench report, so
// every entry point speaks one metrics dialect), the span-derived report
// for -explain and the Chrome trace file for -trace.
func printEpilogue(w io.Writer, ctx *engine.Context, tr *trace.Tracer, metrics, explain bool, traceFile string) error {
	if metrics {
		fmt.Fprintln(w, ctx.Metrics.Snapshot())
	}
	if explain {
		trace.Build(tr.Snapshot()).Fprint(w)
	}
	if traceFile != "" {
		return writeTrace(traceFile, tr)
	}
	return nil
}

// queryServer runs the window against a serving daemon (or cluster router)
// over HTTP and prints the stats in the local format, followed by the
// server-side execution report when -explain was given.
func queryServer(w io.Writer, base string, req serve.QueryRequest) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hresp, err := http.Post(strings.TrimRight(base, "/")+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("server answered %d: %s", hresp.StatusCode, e.Error)
		}
		return fmt.Errorf("server answered %d: %s", hresp.StatusCode, bytes.TrimSpace(body))
	}
	var resp serve.QueryResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return err
	}
	fmt.Fprintf(w, "server: %s (cache %s, %.3f ms)\n", base, resp.Cache, resp.ElapsedMS)
	if resp.Approx != nil {
		printApprox(w, resp.Approx)
	} else {
		printLoaded(w, resp.Stats)
	}
	resp.Explain.Fprint(w)
	return nil
}

// queryApprox answers the window from the dataset's summary sidecars
// directly (the -dir path; -server routes through the daemon instead).
func queryApprox(ctx *engine.Context, dataset, dir string, w selection.Window, req stdata.ApproxRequest) (*summary.Result, error) {
	sch, ok := stdata.Lookup(dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		return nil, err
	}
	res, _, err := sch.ApproxQuery(ctx, dir, meta, w, req)
	return res, err
}

// printApprox renders an approximate answer envelope.
func printApprox(w io.Writer, r *summary.Result) {
	fmt.Fprintf(w, "approx %s: %g ± %g", r.Agg, r.Estimate, r.Bound)
	if r.Exact {
		fmt.Fprintf(w, " (exact)")
	}
	fmt.Fprintf(w, "\ncount envelope: [%d,%d]", r.CountLo, r.CountHi)
	if r.Distinct > 0 {
		fmt.Fprintf(w, "; distinct ids ~%.0f", r.Distinct)
		if r.DistinctExact {
			fmt.Fprintf(w, " (exact)")
		}
	}
	fmt.Fprintf(w, "\nprovenance: %d summary blocks, %d blocks scanned, %d records scanned, %d bytes read",
		r.SummaryBlocks, r.ScannedBlocks, r.ScannedRecords, r.BytesRead)
	if r.Fallback {
		fmt.Fprintf(w, "; exact fallback (no sidecars)")
	}
	fmt.Fprintf(w, "\n")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  cell [%g,%g]x[%g,%g] t[%g,%g]: %g ± %g [%d,%d]\n",
			c.Box.Min[0], c.Box.Max[0], c.Box.Min[1], c.Box.Max[1], c.Box.Min[2], c.Box.Max[2],
			c.Estimate, c.Bound, c.Lo, c.Hi)
	}
}

// subscribeServer registers the window as a standing subscription on the
// daemon and prints one line per pushed update until maxEvents arrive
// (0 = no bound). It speaks the server's SSE framing: `event:` carries the
// update kind, `data:` the JSON payload.
func subscribeServer(w io.Writer, base string, req serve.QueryRequest, maxEvents int) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hresp, err := http.Post(strings.TrimRight(base, "/")+"/subscribe", "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		return fmt.Errorf("server answered %d: %s", hresp.StatusCode, bytes.TrimSpace(body))
	}
	fmt.Fprintf(w, "subscribed: %s dataset %s window [%g,%g]x[%g,%g] t[%d,%d]\n",
		base, req.Dataset, req.MinX, req.MaxX, req.MinY, req.MaxY, req.TStart, req.TEnd)
	seen := 0
	sc := bufio.NewScanner(hresp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0: // blank line dispatches the accumulated frame
			if data == nil {
				continue // keepalive comment frame
			}
			if err := printUpdate(w, data); err != nil {
				return err
			}
			data = nil
			seen++
			if maxEvents > 0 && seen >= maxEvents {
				return nil
			}
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append([]byte(nil), line[len("data: "):]...)
		default:
			// event:/id: lines duplicate fields inside data; comments keep
			// the stream alive. Nothing to do for either.
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended after %d events (daemon drained?)", seen)
}

// printUpdate renders one pushed update as a log line.
func printUpdate(w io.Writer, data []byte) error {
	var u subscribe.Update
	if err := json.Unmarshal(data, &u); err != nil {
		return fmt.Errorf("bad update frame: %w", err)
	}
	switch u.Kind {
	case subscribe.KindBatch:
		_, err := fmt.Fprintf(w, "batch: generation %d seq %d partition %d: %d records\n",
			u.Generation, u.Seq, u.Partition, len(u.Records))
		return err
	default: // init, resync
		records, parts := 0, 0
		for _, p := range u.Parts {
			parts++
			records += len(p.Records)
		}
		_, err := fmt.Fprintf(w, "%s: generation %d (fence %d): %d records in %d partitions\n",
			u.Kind, u.Generation, u.NextSeq, records, parts)
		return err
	}
}

// writeTrace dumps the tracer's spans as a Chrome trace file.
func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pointPatOptions bundles the -pointpat flag values.
type pointPatOptions struct {
	Stat               string
	Radii, Lags        string
	Partitions         int
	Brute              bool
	Cells, TSlots      int
	NbrCells, NbrSlots int
	ZThresh            float64
}

// runPointPat selects the window, projects matches to pattern points, and
// runs the requested distributed point-pattern statistic.
func runPointPat(w io.Writer, ctx *engine.Context, dataset, dir string, win selection.Window, o pointPatOptions) error {
	sch, ok := stdata.Lookup(dataset)
	if !ok {
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	pts, stats, err := sch.SelectPoints(ctx, dir, win)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "selected %d points (%d/%d partitions loaded)\n",
		len(pts), stats.LoadedPartitions, stats.TotalPartitions)
	switch o.Stat {
	case "k":
		return runRipleyK(w, ctx, pts, o)
	case "getis":
		return runGetis(w, ctx, pts, o)
	default:
		return fmt.Errorf("unknown -pointpat statistic %q (want k or getis)", o.Stat)
	}
}

func runRipleyK(w io.Writer, ctx *engine.Context, pts []pointpat.Point, o pointPatOptions) error {
	radii, err := parseFloats(o.Radii)
	if err != nil {
		return fmt.Errorf("-radii: %w", err)
	}
	lags, err := parseInts(o.Lags)
	if err != nil {
		return fmt.Errorf("-lags: %w", err)
	}
	cfg := pointpat.KConfig{
		Grid:       pointpat.Grid{Radii: radii, Lags: lags},
		Partitions: o.Partitions,
	}
	res, err := pointpat.DistributedK(ctx, pts, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ripley k: n=%d region %s t[%d,%d] over %d partitions\n",
		res.N, res.Region.Space, res.Region.Time.Start, res.Region.Time.End, res.Partitions)
	fmt.Fprintf(w, "%10s %8s %12s %12s %14s\n", "radius", "lag", "pairs", "centers", "K")
	for r, h := range radii {
		for l, lag := range lags {
			fmt.Fprintf(w, "%10g %8d %12d %12d %14.6g\n",
				h, lag, res.Pairs[r][l], res.Centers[r][l], res.K[r][l])
		}
	}
	fmt.Fprintf(w, "halo: %d points, %d bytes; pairs: %d tested, %d counted\n",
		res.HaloPoints, res.HaloBytes, res.PairsTested, res.PairsCounted)
	if o.Brute {
		brute, err := pointpat.BruteForceK(pts, cfg)
		if err != nil {
			return err
		}
		if err := sameK(res, brute); err != nil {
			return fmt.Errorf("oracle divergence: %w", err)
		}
		fmt.Fprintf(w, "oracle: brute force identical (%d pairs tested there)\n", brute.PairsTested)
	}
	return nil
}

func runGetis(w io.Writer, ctx *engine.Context, pts []pointpat.Point, o pointPatOptions) error {
	if len(pts) == 0 {
		fmt.Fprintln(w, "getis: no points in window")
		return nil
	}
	reg := pointpat.RegionOf(pts)
	cfg := pointpat.GetisConfig{
		Grid: instance.RasterGrid{
			Space: instance.SpatialGrid{Extent: reg.Space, NX: o.Cells, NY: o.Cells},
			Time:  instance.TimeGrid{Window: reg.Time, NT: o.TSlots},
		},
		RadiusCells: o.NbrCells, LagSlots: o.NbrSlots,
		Partitions: o.Partitions,
	}
	res, err := pointpat.DistributedGiStar(ctx, pts, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "getis-ord gi*: %d cells (%dx%dx%d), mean %.4g, std %.4g\n",
		len(res.Counts), o.Cells, o.Cells, o.TSlots, res.Mean, res.Std)
	hot := res.Hot(o.ZThresh)
	fmt.Fprintf(w, "hot spots (z >= %g): %d\n", o.ZThresh, len(hot))
	sort.Slice(hot, func(i, j int) bool { return hot[i].Z > hot[j].Z })
	for i, c := range hot {
		if i == 20 {
			fmt.Fprintf(w, "  ... %d more\n", len(hot)-20)
			break
		}
		ext, slot := cfg.Grid.CellAt(c.Cell)
		fmt.Fprintf(w, "  cell (%d,%d,%d) %s t[%d,%d]: count %d, z %.3f\n",
			c.IX, c.IY, c.IT, ext, slot.Start, slot.End, c.Count, c.Z)
	}
	if o.Brute {
		brute, err := pointpat.BruteForceGiStar(pts, cfg)
		if err != nil {
			return err
		}
		for i := range res.Z {
			if math.Float64bits(res.Z[i]) != math.Float64bits(brute.Z[i]) ||
				res.Counts[i] != brute.Counts[i] {
				return fmt.Errorf("oracle divergence at cell %d: distributed (%d, %v), brute (%d, %v)",
					i, res.Counts[i], res.Z[i], brute.Counts[i], brute.Z[i])
			}
		}
		fmt.Fprintln(w, "oracle: brute force identical")
	}
	return nil
}

// sameK verifies two K results agree bit-for-bit.
func sameK(a, b *pointpat.KResult) error {
	if a.N != b.N {
		return fmt.Errorf("n %d vs %d", a.N, b.N)
	}
	for r := range a.K {
		for l := range a.K[r] {
			if a.Pairs[r][l] != b.Pairs[r][l] || a.Centers[r][l] != b.Centers[r][l] ||
				math.Float64bits(a.K[r][l]) != math.Float64bits(b.K[r][l]) {
				return fmt.Errorf("cell (%d,%d): pairs %d/%d centers %d/%d K %v/%v",
					r, l, a.Pairs[r][l], b.Pairs[r][l],
					a.Centers[r][l], b.Centers[r][l], a.K[r][l], b.K[r][l])
			}
		}
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func query(ctx *engine.Context, dataset, dir string, w selection.Window, full bool) (selection.Stats, error) {
	sch, ok := stdata.Lookup(dataset)
	if !ok {
		return selection.Stats{}, fmt.Errorf("unknown dataset %q", dataset)
	}
	q := sch.NewQuerier(ctx, selection.Config{Index: true})
	if full {
		return q.Select(dir, w)
	}
	return q.SelectPruned(dir, w)
}
