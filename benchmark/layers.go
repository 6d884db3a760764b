package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"time"

	"st4ml/internal/codec"
	"st4ml/internal/index"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// layerMetrics collects per-layer values by catalog name.
type layerMetrics map[string]float64

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// clientMetrics fills the client.* family from the replay's op latencies.
func (m layerMetrics) clientMetrics(latMS []float64, failed int, rec *recorder, wall time.Duration) {
	m["client.p99_ms"] = percentile(latMS, 0.99)
	m["client.max_ms"] = percentile(latMS, 1)
	m["client.samples"] = float64(len(latMS))
	m["client.fail_share"] = ratio(float64(failed), float64(len(latMS)))
	m["client.replay_overhead_share"] = rec.overheadShare(wall)
}

// probeSample is how many of the workload's records the codec probes run
// over, in blocks of probeBlock (storage v3's default block size).
const (
	probeSample = 32 * 1024
	probeBlock  = 1024
)

// probeCodec times the row codec (Marshal/Unmarshal of EventRecC, what the
// delta layer's row payloads and the shuffle pay) and the column codecs
// (the t/lon/lat streams of a v3 block) over a Z-clustered sample of the
// workload's own records, clustered because that is the order storage
// hands blocks to the column codecs in.
func (m layerMetrics) probeCodec(rec *recorder, events []stdata.EventRec) {
	n := min(len(events), probeSample)
	sample := append([]stdata.EventRec(nil), events[:n]...)
	storage.ZCluster(sample, stdata.EventRec.Box)
	root := rec.start(nil, -1, "probe.codec")
	defer root.end()

	rows := make([][]byte, n)
	d := rec.timed(root, -1, "codec.Marshal", func() {
		for i, e := range sample {
			rows[i] = codec.Marshal(stdata.EventRecC, e)
		}
	})
	m["codec.row_encode_ns_per_rec"] = ns(d) / float64(n)
	d = rec.timed(root, -1, "codec.Unmarshal", func() {
		for _, b := range rows {
			if _, err := codec.Unmarshal(stdata.EventRecC, b); err != nil {
				panic(err) // bytes Marshal just produced
			}
		}
	})
	m["codec.row_decode_ns_per_rec"] = ns(d) / float64(n)

	// Column streams, one writer per column per block.
	type block struct {
		n           int
		t, lon, lat []byte
	}
	var blocks []block
	var colBytes, vals int
	ts := make([]int64, 0, probeBlock)
	lon := make([]float64, 0, probeBlock)
	lat := make([]float64, 0, probeBlock)
	for lo := 0; lo < n; lo += probeBlock {
		hi := min(lo+probeBlock, n)
		ts, lon, lat = ts[:0], lon[:0], lat[:0]
		for _, e := range sample[lo:hi] {
			ts = append(ts, e.Time)
			lon = append(lon, e.Loc.X)
			lat = append(lat, e.Loc.Y)
		}
		b := block{n: hi - lo}
		w := codec.NewWriter(4096)
		w.PutInt64Col(ts)
		b.t = append([]byte(nil), w.Bytes()...)
		w.Reset()
		w.PutFloat64Col(lon)
		b.lon = append([]byte(nil), w.Bytes()...)
		w.Reset()
		w.PutFloat64Col(lat)
		b.lat = append([]byte(nil), w.Bytes()...)
		blocks = append(blocks, b)
		colBytes += len(b.t) + len(b.lon) + len(b.lat)
		vals += 3 * b.n
	}
	d = rec.timed(root, -1, "codec.Int64Col+Float64Col", func() {
		for _, b := range blocks {
			ts = codec.Int64Col(b.t, b.n, ts)
			lon = codec.Float64Col(b.lon, b.n, lon)
			lat = codec.Float64Col(b.lat, b.n, lat)
		}
	})
	m["codec.col_decode_ns_per_val"] = ratio(ns(d), float64(vals))
	m["codec.col_bytes_per_val"] = ratio(float64(colBytes), float64(vals))
}

// probeParts is how many partitions the R-tree probe builds trees over.
const probeParts = 4

// probeIndex times the R-tree: a bulk load over one partition's record
// boxes (what a cold partition load and every conversion task build), and
// a Search per workload window (what a hot query spends its time in).
func (m layerMetrics) probeIndex(rec *recorder, boxes [][]index.Box, windows []selection.Window) {
	root := rec.start(nil, -1, "probe.index")
	defer root.end()
	var items, probes, hits int
	var build, probe time.Duration
	for _, part := range boxes {
		its := make([]index.Item[int], len(part))
		for i, b := range part {
			its[i] = index.Item[int]{Box: b, Data: i}
		}
		var tree *index.RTree[int]
		build += rec.timed(root, -1, "index.BulkLoadSTR", func() { tree = index.BulkLoadSTR(its, 16) })
		items += len(its)
		probe += rec.timed(root, -1, "index.Search", func() {
			for _, w := range windows {
				hits += len(tree.Search(w.Box()))
			}
		})
		probes += len(windows)
	}
	m["index.rtree_build_ns_per_item"] = ratio(ns(build), float64(items))
	m["index.rtree_probe_us"] = ratio(us(probe), float64(probes))
	m["index.rtree_hits_per_probe"] = ratio(float64(hits), float64(probes))
}

// eventBoxes decodes the first probeParts partitions of an event store
// into their record boxes.
func eventBoxes(dir string, meta *storage.Metadata) ([][]index.Box, error) {
	var out [][]index.Box
	for id := 0; id < min(probeParts, meta.NumPartitions()); id++ {
		recs, err := storage.ReadPartition(dir, meta, id, stdata.EventRecC)
		if err != nil {
			return nil, err
		}
		boxes := make([]index.Box, len(recs))
		for i, r := range recs {
			boxes[i] = r.Box()
		}
		out = append(out, boxes)
	}
	return out, nil
}

// probePartition times the ingest planner on the 5 % sample ingest plans
// from, and reads how evenly it cut the store.
func (m layerMetrics) probePartition(rec *recorder, planner partition.Planner, boxes []index.Box, meta *storage.Metadata) {
	sample := make([]index.Box, 0, len(boxes)/20+1)
	for i := 0; i < len(boxes); i += 20 {
		sample = append(sample, boxes[i])
	}
	d := rec.timed(nil, -1, "partition.Plan", func() { planner.Plan(sample) })
	m["partition.plan_ms"] = ms(d)
	counts := make([]int64, meta.NumPartitions())
	for i, p := range meta.Partitions {
		counts[i] = p.Count
	}
	m["partition.size_cv"] = partition.CV(counts)
}

// callHandler drives an HTTP handler without a socket.
func callHandler(h http.Handler, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code, rw.Body.Bytes()
}

// daemonCounters is the slice of a daemon's /metrics the replay reads as
// deltas over a window.
type daemonCounters struct {
	loads, lookups, hits, evictions, shed, timeouts float64
}

func (a daemonCounters) minus(b daemonCounters) daemonCounters {
	return daemonCounters{
		a.loads - b.loads, a.lookups - b.lookups, a.hits - b.hits,
		a.evictions - b.evictions, a.shed - b.shed, a.timeouts - b.timeouts,
	}
}

// readDaemons sums the counters of every daemon through their public
// /metrics endpoint, the one place cache and admission stats are exported.
func readDaemons(servers []*serve.Server) daemonCounters {
	var c daemonCounters
	for _, srv := range servers {
		_, body := callHandler(srv.Handler(), http.MethodGet, "/metrics", nil)
		var mr serve.MetricsResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			panic(err) // the daemon's own JSON
		}
		c.loads += float64(mr.Server.PartitionLoads)
		c.timeouts += float64(mr.Server.Timeouts)
		c.lookups += float64(mr.Cache.Lookups)
		c.hits += float64(mr.Cache.Hits)
		c.evictions += float64(mr.Cache.Evictions)
		c.shed += float64(mr.Admission.ShedBusy + mr.Admission.ShedTimeout)
	}
	return c
}

// serveCounters turns a counter delta over ops operations into the serve.*
// cache and admission metrics.
func (m layerMetrics) serveCounters(d daemonCounters, ops int) {
	m["serve.partition_hit_ratio"] = ratio(d.hits, d.lookups)
	m["serve.partition_loads_per_op"] = ratio(d.loads, float64(ops))
	m["serve.evictions_per_op"] = ratio(d.evictions, float64(ops))
	m["serve.shed"] = d.shed
	m["serve.timeouts"] = d.timeouts
}
