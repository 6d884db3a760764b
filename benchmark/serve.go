package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"st4ml/internal/cluster"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
)

// serveWorkload is serve_cold, serve_hot and routed: one NYC-like store
// with summary sidecars, queried over loopback HTTP by closed-loop clients.
//
//   - serve_cold: one daemon whose partition cache holds an eighth of the
//     decoded dataset; exact counts, then approx counts over the summary
//     sidecars. Nearly every exact op reads blocks, decodes columns and
//     builds R-trees.
//   - serve_hot: one daemon with the default 256 MiB budget, pre-warmed;
//     records:true with no limit. Time goes to R-tree probes, JSON record
//     marshalling and HTTP.
//   - routed: a router over two shard daemons, the byte-identical request
//     list of serve_hot. The only difference from serve_hot is the cluster
//     layer.
type serveWorkload struct {
	kind string
	cfg  config

	events  []stdata.EventRec
	windows []selection.Window
	bodies  [][]byte // the request list
	approx  []bool   // per request: an approx op (serve_cold only)
	want    []answer
	// order is the slice of the request list the clients cycle through:
	// all of it, except that serve_cold issues its exact and its approx
	// requests in separate phases of the window.
	order, allIdx, exactIdx, approxIdx []int

	dir          string
	meta         *storage.Metadata
	decodedBytes int64 // sized on the first set-up; the inputs fix it
	cacheBytes   int64
	// setupShuffleBytes is what the ingest job shuffled (a per-layer metric).
	setupShuffleBytes int64

	servers   []*serve.Server
	listeners []*httptest.Server
	router    *cluster.Router
	front     http.Handler // what the clients' requests reach
	// shardBytes counts the reply bytes the shards wrote (traced runs).
	shardBytes atomic.Int64
	transport  *http.Transport // clients' and router's connections
	client     *http.Client
	url        string // what the clients POST to
	hotURL     string // routed: a single daemon over the same store, the reference

	// refs[i] digests the single daemon's reply to request i with
	// elapsed_ms cut out; a routed reply must digest the same.
	refs     []uint64
	hashSeed maphash.Seed

	next atomic.Int64
	bufs sync.Pool
}

// coldCacheShare is serve_cold's partition-cache budget as a share of the
// decoded dataset: the data is eight times the program's cache.
const coldCacheShare = 8

// approxPhaseShare is the share of serve_cold's window given to the approx
// requests. They are a fifth of the request list (every fifth request),
// but interleaved with the exact ones their latency is the other client's
// 30 ms block-decoding op holding both cores — a quartile spread of 0.3 on
// a single seed. In their own phase they measure the summary path.
const approxPhaseShare = 1.0 / 6

func (w *serveWorkload) prepare() string {
	sc := w.cfg.scale
	w.events = genEvents(sc.ServeEvents)
	w.windows = genWindows(datagen.NYCExtent, sc.Windows, subSeed(w.cfg.seed, seedWindows))
	w.want = bruteEvents(w.events, w.windows)
	w.bodies = make([][]byte, len(w.windows))
	w.approx = make([]bool, len(w.windows))
	for i, win := range w.windows {
		switch w.kind {
		case wlServeCold:
			w.approx[i] = i%5 == 4
			w.bodies[i] = queryBody(win, false, w.approx[i], true)
		default:
			w.bodies[i] = queryBody(win, true, false, true)
		}
	}
	for i := range w.bodies {
		w.allIdx = append(w.allIdx, i)
		if w.approx[i] {
			w.approxIdx = append(w.approxIdx, i)
		} else {
			w.exactIdx = append(w.exactIdx, i)
		}
	}
	w.order = w.exactIdx
	w.hashSeed = maphash.MakeSeed()
	w.bufs.New = func() any { return new(bytes.Buffer) }

	d := newInputDigest()
	d.events(w.events)
	d.windows(w.windows)
	for _, b := range w.bodies {
		d.bytes(b)
	}
	return d.sum()
}

// nycSchema returns the registered event schema.
func nycSchema() stdata.Schema {
	sch, ok := stdata.Lookup("nyc")
	if !ok {
		panic("benchmark: stdata has no nyc schema")
	}
	return sch
}

// ingestSeed is the partition planner's sampling seed: a parameter of the
// program under test, so it is fixed, not derived from the benchmark seed.
const ingestSeed = 1

// ingestNYC lays events out as the serving stores are: T-STR 8x4 (32
// partitions), storage v3 at its default block size.
// It returns the bytes the ingest job shuffled.
func ingestNYC(events []stdata.EventRec, dir string) (shuffleBytes int64, err error) {
	sch := nycSchema()
	ctx := engine.New(engine.Config{})
	_, err = sch.Ingest(ctx, events, dir, sch.DefaultPlanner(8, 4),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.05, Seed: ingestSeed})
	return ctx.Metrics.Snapshot().ShuffleBytes, err
}

func (w *serveWorkload) setup(dir string) (time.Duration, error) {
	w.dir = dir
	t0 := time.Now()
	var err error
	if w.setupShuffleBytes, err = ingestNYC(w.events, dir); err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	sch := nycSchema()
	if _, err = sch.BuildSummaries(dir, summary.Config{}); err != nil {
		return 0, fmt.Errorf("sidecars: %w", err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		return 0, err
	}
	w.meta = meta
	took := time.Since(t0)

	if w.decodedBytes == 0 {
		// Not the system's set-up: the benchmark sizing its cold cache.
		for id := 0; id < meta.NumPartitions(); id++ {
			p, _, err := sch.LoadPartition(dir, meta, id)
			if err != nil {
				return 0, err
			}
			w.decodedBytes += p.SizeBytes()
		}
	}

	t1 := time.Now()
	if err := w.startDaemons(); err != nil {
		return 0, err
	}
	if s := w.do(0); !s.ok {
		return 0, fmt.Errorf("first reply of %s did not verify", w.kind)
	}
	return took + time.Since(t1), nil
}

// startDaemons brings up the workload's daemons as loopback listeners
// inside this process.
func (w *serveWorkload) startDaemons() error {
	w.client, w.transport = loopbackClient()
	daemon := func(cfg serve.Config) (string, error) {
		if w.cfg.trace {
			// One engine slot: a query's partition tasks run in order, so
			// the LRU sees one history and the replay's counts repeat.
			cfg.Ctx = engine.New(engine.Config{Slots: 1})
		}
		srv := serve.NewServer(cfg)
		w.servers = append(w.servers, srv)
		if err := srv.AddDataset("nyc", "nyc", w.dir); err != nil {
			return "", err
		}
		w.front = srv.Handler()
		if w.cfg.trace {
			w.front = countBytes(w.front, &w.shardBytes)
		}
		ts := httptest.NewServer(w.front)
		w.listeners = append(w.listeners, ts)
		return ts.URL, nil
	}
	switch w.kind {
	case wlServeCold:
		w.cacheBytes = w.decodedBytes / coldCacheShare
		url, err := daemon(serve.Config{CacheBytes: w.cacheBytes})
		w.url = url
		return err
	case wlServeHot:
		w.cacheBytes = 256 << 20 // serve's default
		url, err := daemon(serve.Config{})
		w.url = url
		return err
	}
	// routed: two shards behind a router. Each shard daemon serves the
	// whole store; the router's sub-queries carry the partition lists.
	w.cacheBytes = 256 << 20
	var urls []string
	for i := 0; i < 2; i++ {
		url, err := daemon(serve.Config{ShardName: fmt.Sprintf("s%d", i)})
		if err != nil {
			return err
		}
		urls = append(urls, url)
	}
	w.hotURL = urls[0]
	m, err := cluster.ParseShards(strings.Join(urls, ";"))
	if err != nil {
		return err
	}
	r, err := cluster.NewRouter(cluster.Config{Shards: m, Client: &http.Client{Transport: w.transport}})
	if err != nil {
		return err
	}
	if err := r.AddDataset("nyc", "nyc", w.dir); err != nil {
		return err
	}
	w.router = r
	w.front = r.Handler()
	ts := httptest.NewServer(w.front)
	w.listeners = append(w.listeners, ts)
	w.url = ts.URL
	return nil
}

func (w *serveWorkload) teardown() {
	// The router's listener closes before the shards it calls.
	for i := len(w.listeners) - 1; i >= 0; i-- {
		w.listeners[i].Close()
	}
	for _, srv := range w.servers {
		srv.Close()
	}
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	w.listeners, w.servers, w.router, w.transport = nil, nil, nil, nil
}

// post sends body to url's /query and returns the status and the reply in
// a pooled buffer the caller hands back with w.bufs.Put.
func (w *serveWorkload) post(url string, body []byte) (int, *bytes.Buffer, error) {
	resp, err := w.client.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := w.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		w.bufs.Put(buf)
		return 0, nil, err
	}
	return resp.StatusCode, buf, nil
}

// do runs request i of the cycled list and checks the reply against the
// brute-force answer. The latency covers the POST through the last byte of
// the reply; the check runs after the clock stops.
func (w *serveWorkload) do(i int64) sample {
	idx := w.order[i%int64(len(w.order))]
	t0 := time.Now()
	status, buf, err := w.post(w.url, w.bodies[idx])
	s := sample{class: classOp, primary: true, ms: msSince(t0)}
	if w.approx[idx] {
		s.class, s.primary = classApprox, false
	}
	if err != nil {
		return s
	}
	defer w.bufs.Put(buf)
	s.ok = status == http.StatusOK && w.check(idx, buf.Bytes())
	return s
}

// check verifies a reply to request idx against the oracle and, once
// routed has taken its references, against the single daemon's bytes.
func (w *serveWorkload) check(idx int, body []byte) bool {
	return w.verify(idx, body) && (w.refs == nil || w.digestReply(body) == w.refs[idx])
}

// verify checks one 200 reply body against the oracle.
func (w *serveWorkload) verify(idx int, body []byte) bool {
	want := w.want[idx]
	if w.approx[idx] {
		var r struct {
			Approx *summary.Result `json:"approx"`
		}
		if json.Unmarshal(body, &r) != nil || r.Approx == nil {
			return false
		}
		a := r.Approx
		exact := float64(want.Count)
		return a.CountLo <= want.Count && want.Count <= a.CountHi &&
			exact >= a.Estimate-a.Bound && exact <= a.Estimate+a.Bound
	}
	if scanInt(body, selectedKey) != want.Count {
		return false
	}
	if w.kind == wlServeCold {
		return true // records:false: the count is the whole answer
	}
	return scanIDs(body) == want
}

var elapsedKey = []byte(`"elapsed_ms":`)

// digestReply hashes a reply with the value of elapsed_ms cut out, the one
// field in which a routed reply may differ from a single daemon's.
func (w *serveWorkload) digestReply(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(w.hashSeed)
	if i := bytes.Index(body, elapsedKey); i >= 0 {
		j := i + len(elapsedKey)
		for j < len(body) && body[j] != ',' && body[j] != '}' {
			j++
		}
		h.Write(body[:i])
		body = body[j:]
	}
	h.Write(body)
	return h.Sum64()
}

// pass runs every request of the list once against url, on the workload's
// client count, and returns how many replies failed fn.
func (w *serveWorkload) pass(url string, fn func(idx int, body []byte) bool) (failed int64, err error) {
	var next, bad atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(w.bodies) {
					return
				}
				status, buf, err := w.post(url, w.bodies[idx])
				if err != nil {
					errs[c] = err
					return
				}
				if status != http.StatusOK || !fn(idx, buf.Bytes()) {
					bad.Add(1)
				}
				w.bufs.Put(buf)
			}
		}(c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	return bad.Load(), nil
}

func (w *serveWorkload) warm(ctx context.Context, d time.Duration) error {
	start := time.Now()
	if w.kind == wlRouted {
		// The reference pass: the single daemon's reply to every request,
		// itself checked against brute force, digested for the byte
		// comparison. It also warms shard 0 for every partition.
		w.refs = nil
		refs := make([]uint64, len(w.bodies))
		failed, err := w.pass(w.hotURL, func(idx int, body []byte) bool {
			refs[idx] = w.digestReply(body)
			return w.verify(idx, body)
		})
		if err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("%d single-daemon reference replies did not verify", failed)
		}
		w.refs = refs
	}
	if w.kind != wlServeCold {
		// Pre-warm: every request once, so every partition the list can
		// touch is pinned before the window opens.
		failed, err := w.pass(w.url, w.check)
		if err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("%d warm-up replies did not verify", failed)
		}
	}
	if rest := d - time.Since(start); rest > 0 {
		if m := w.phase(ctx, w.exactIdx, rest); m.failed() > 0 {
			return fmt.Errorf("%d warm-up replies did not verify", m.failed())
		}
	}
	return nil
}

// phase runs the closed loop for d over one slice of the request list,
// from its first request.
func (w *serveWorkload) phase(ctx context.Context, order []int, d time.Duration) *measured {
	w.order = order
	w.next.Store(0)
	return closedLoop(ctx, clients, d, &w.next, w.do)
}

func (w *serveWorkload) measure(ctx context.Context, d time.Duration) (*measured, error) {
	loads := w.partitionLoads()
	approxD := time.Duration(0)
	if len(w.approxIdx) > 0 {
		approxD = time.Duration(float64(d) * approxPhaseShare)
	}
	m := w.phase(ctx, w.exactIdx, d-approxD)
	if approxD > 0 {
		// The approx ops count for approx_p50_ms and for verification, not
		// for ops_per_s: that is the rate of the cold exact ops.
		m.samples = append(m.samples, w.phase(ctx, w.approxIdx, approxD).samples...)
	}
	if w.kind != wlServeCold {
		// Everything fits and was pre-warmed: a partition load inside the
		// window means the workload is not the one its name says.
		if n := w.partitionLoads() - loads; n != 0 {
			return nil, fmt.Errorf("%s loaded %d partitions inside the measure window, want 0", w.kind, n)
		}
	}
	return m, nil
}

func (w *serveWorkload) partitionLoads() int64 {
	var n int64
	for _, srv := range w.servers {
		n += srv.Stats().PartitionLoads
	}
	return n
}

func (w *serveWorkload) diskBytesPerRecord() (float64, error) {
	n, err := dirBytes(w.dir, "")
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(len(w.events)), nil
}

func (w *serveWorkload) info() map[string]any {
	disk, _ := dirBytes(w.dir, "")
	return map[string]any{
		"records":               len(w.events),
		"partitions":            w.meta.NumPartitions(),
		"requests":              len(w.bodies),
		"decoded_bytes":         w.decodedBytes,
		"partition_cache_bytes": w.cacheBytes,
		"disk_bytes":            disk,
	}
}
