package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"st4ml/internal/cluster"
	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
)

// countBytes wraps a handler to count the reply bytes it writes.
func countBytes(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&countingWriter{ResponseWriter: rw, n: n}, r)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	return c.ResponseWriter.Write(b)
}

// walkShare is the share of the replayed ops the layer walk re-executes
// through the layers' public functions (the handler pass covers them all).
const walkShare = 5

// socketOps is how many of the replayed ops are sent again over the socket.
const socketOps = 100

// resultHitProbes is how many queries the result-cache probe repeats.
const resultHitProbes = 20

// replay is the traced run of serve_cold, serve_hot and routed. It drives
// the first n requests single-client through the front handler without a
// socket (what the daemon does), through the socket (what HTTP adds), and
// walks a fifth of them through storage, index, stdata and summary calls
// (where a cold op's time goes). Counters are read as deltas over the
// handler pass; one client, one engine slot and a fixed op count make them
// repeat exactly.
func (w *serveWorkload) replay(ctx context.Context, rec *recorder, n int) (map[string]float64, error) {
	m := layerMetrics{}
	n = min(n, len(w.bodies))

	m.probeCodec(rec, w.events)
	boxes, err := eventBoxes(w.dir, w.meta)
	if err != nil {
		return nil, err
	}
	m.probeIndex(rec, boxes, w.windows)
	all := make([]index.Box, len(w.events))
	for i, e := range w.events {
		all[i] = e.Box()
	}
	m.probePartition(rec, nycSchema().DefaultPlanner(8, 4), all, w.meta)
	m["engine.shuffle_bytes_per_setup"] = float64(w.setupShuffleBytes)
	sidecars, err := dirBytes(w.dir, summary.Suffix)
	if err != nil {
		return nil, err
	}
	m["summary.sidecar_bytes_per_record"] = ratio(float64(sidecars), float64(len(w.events)))

	// Pre-warm as the measured run does (and take routed's references).
	if err := w.warm(ctx, 0); err != nil {
		return nil, err
	}

	single := w.front // the one daemon's handler
	if w.kind == wlRouted {
		single = w.servers[0].Handler()
	}

	// The handler pass: every op through the front handler, no socket.
	before := readDaemons(w.servers)
	w.shardBytes.Store(0)
	routerBefore := w.routerStats()
	var lat, primary []float64
	var failed int
	var respBytes int64
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		root := rec.start(nil, i, "op")
		var code int
		var body []byte
		d := rec.timed(root, i, "front.ServeHTTP", func() {
			code, body = callHandler(w.front, http.MethodPost, "/query", w.bodies[i])
		})
		root.end()
		if code != http.StatusOK || !w.check(i, body) {
			failed++
		}
		lat = append(lat, ms(d))
		if !w.approx[i] {
			primary = append(primary, ms(d))
		}
		respBytes += int64(len(body))
	}
	wall := time.Since(start)
	m.serveCounters(readDaemons(w.servers).minus(before), n)
	m["serve.resp_bytes_per_op"] = ratio(float64(respBytes), float64(n))
	m.clientMetrics(lat, failed, rec, wall)

	// The single daemon's handler time. For serve_cold and serve_hot it is
	// the pass above; routed runs the same requests at one shard daemon,
	// which is serve_hot's path, and the difference is the router's.
	if w.kind == wlRouted {
		rs := w.routerStats()
		queries := float64(rs.Queries - routerBefore.Queries)
		m["cluster.rpcs_per_op"] = ratio(float64(rs.RPCs-routerBefore.RPCs), queries)
		m["cluster.scatter_width"] = ratio(float64(rs.ScatterWidth-routerBefore.ScatterWidth), queries)
		m["cluster.shard_resp_bytes_per_op"] = ratio(float64(w.shardBytes.Load()), queries)
		m["cluster.hedges"] = float64(rs.Hedges - routerBefore.Hedges)
		m["cluster.failovers"] = float64(rs.Failovers - routerBefore.Failovers)
		m["cluster.dedup_drops"] = float64(rs.DedupDrops - routerBefore.DedupDrops)
		m["cluster.replans"] = float64(rs.Replans - routerBefore.Replans)

		var one []float64
		for i := 0; i < n && ctx.Err() == nil; i++ {
			root := rec.start(nil, i, "op.single")
			d := rec.timed(root, i, "serve.Handler.ServeHTTP", func() {
				callHandler(single, http.MethodPost, "/query", w.bodies[i])
			})
			root.end()
			one = append(one, ms(d))
		}
		m["serve.handler_ms"] = median(one)
		m["cluster.router_overhead_ms"] = median(primary) - median(one)
		m["cluster.router_overhead_share"] = ratio(median(primary)-median(one), median(primary))
	} else {
		m["serve.handler_ms"] = median(primary)
	}

	// The socket pass: the first ops again, as a client sends them.
	var sock, noSock []float64
	w.order = w.allIdx
	for i := 0; i < min(n, socketOps) && ctx.Err() == nil; i++ {
		if s := w.do(int64(i)); s.primary {
			sock = append(sock, s.ms)
			noSock = append(noSock, lat[i])
		}
	}
	m["serve.http_overhead_ms"] = median(sock) - median(noSock)

	// The result cache: the same query twice without no_cache.
	var hits []float64
	for i := 0; i < min(resultHitProbes, n); i++ {
		body := queryBody(w.windows[i], w.kind != wlServeCold, false, false)
		callHandler(single, http.MethodPost, "/query", body)
		d := rec.timed(nil, i, "serve.Handler.ServeHTTP(result hit)", func() {
			callHandler(single, http.MethodPost, "/query", body)
		})
		hits = append(hits, us(d))
	}
	m["serve.result_hit_us"] = median(hits)

	if err := w.walk(rec, m, n/walkShare); err != nil {
		return nil, err
	}
	return m, ctx.Err()
}

// routerStats returns the router's counters (zero without a router).
func (w *serveWorkload) routerStats() cluster.RouterStats {
	if w.router == nil {
		return cluster.RouterStats{}
	}
	return w.router.Stats()
}

// walk re-executes the first k ops through the layers' public functions in
// query order: metadata prune, partition load (stdata: block read + column
// decode + R-tree build, and the storage read alone), then the query over
// the loaded partitions, counting and with records. Partitions stay loaded
// across ops, so a load is timed once per partition touched. serve_cold's
// approx ops go through ApproxQuery instead.
func (w *serveWorkload) walk(rec *recorder, m layerMetrics, k int) error {
	sch := nycSchema()
	ectx := engine.New(engine.Config{Slots: 1})
	loaded := map[int]stdata.Partition{}
	partBytes := map[int]int64{} // on-disk bytes one full read of the partition touches
	fetch := func(id int) (stdata.Partition, error) {
		p, ok := loaded[id]
		if !ok {
			return nil, fmt.Errorf("partition %d was not pre-fetched", id)
		}
		return p, nil
	}
	var loadMS, readMS, warmMS, approxMS []float64
	var blocks, scanned, recsRead, recsPruned int64
	var jsonNS float64
	var jsonRecs int64
	var approxBytes, exactBytes int64
	var boundRel []float64
	var fallbacks int

	for i := 0; i < k; i++ {
		win := w.windows[i]
		root := rec.start(nil, i, "walk")
		var ids []int
		rec.timed(root, i, "storage.Metadata.Prune", func() { ids = w.meta.Prune(win.Space, win.Time) })
		for _, id := range ids {
			if _, ok := loaded[id]; ok {
				continue
			}
			var p stdata.Partition
			var err error
			d := rec.timed(root, i, "stdata.LoadPartition", func() { p, _, err = sch.LoadPartition(w.dir, w.meta, id) })
			if err != nil {
				return err
			}
			loadMS = append(loadMS, ms(d))
			loaded[id] = p
			var recs []stdata.EventRec
			var rst storage.ReadStats
			d = rec.timed(root, i, "storage.ReadPartitionPruned", func() {
				recs, rst, err = storage.ReadPartitionPruned(w.dir, w.meta, id, stdata.EventRecC, nil)
			})
			if err != nil {
				return err
			}
			readMS = append(readMS, ms(d))
			partBytes[id] = rst.BytesRead
			blocks += int64(rst.Blocks)
			scanned += int64(rst.BlocksScanned)
			recsRead += int64(len(recs))
			recsPruned += rst.RecordsPruned
		}
		if w.approx[i] {
			var res *summary.Result
			var err error
			d := rec.timed(root, i, "stdata.ApproxQuery", func() {
				res, _, err = sch.ApproxQuery(ectx, w.dir, w.meta, win, stdata.ApproxRequest{})
			})
			if err != nil {
				return err
			}
			approxMS = append(approxMS, ms(d))
			approxBytes += res.BytesRead
			for _, id := range ids {
				exactBytes += partBytes[id]
			}
			if res.Estimate > 0 {
				boundRel = append(boundRel, res.Bound/res.Estimate)
			}
			if res.Fallback {
				fallbacks++
			}
		} else {
			query := func(name string, records bool) (time.Duration, stdata.QueryResult, error) {
				var res stdata.QueryResult
				var err error
				d := rec.timed(root, i, name, func() {
					res, err = sch.ServeQuery(ectx, w.dir, w.meta, fetch, win, stdata.QueryOptions{Records: records})
				})
				return d, res, err
			}
			dCount, res, err := query("stdata.ServeQuery(count)", false)
			if err != nil {
				return err
			}
			if res.Stats.SelectedRecords != w.want[i].Count {
				return errors.New("layer walk: ServeQuery disagrees with brute force")
			}
			dRecs, _, err := query("stdata.ServeQuery(records)", true)
			if err != nil {
				return err
			}
			warmMS = append(warmMS, ms(dRecs))
			jsonNS += ns(dRecs - dCount)
			jsonRecs += res.Stats.SelectedRecords
		}
		root.end()
	}

	var perPart float64 // mean on-disk bytes of one partition read
	for _, b := range partBytes {
		perPart += float64(b)
	}
	perPart = ratio(perPart, float64(len(partBytes)))
	m["stdata.load_partition_ms"] = mean(loadMS)
	m["storage.read_pruned_ms_per_part"] = mean(readMS)
	m["storage.bytes_read_per_op"] = m["serve.partition_loads_per_op"] * perPart
	m["storage.blocks_scanned_share"] = ratio(float64(scanned), float64(blocks))
	m["storage.records_pruned_share"] = ratio(float64(recsPruned), float64(recsRead+recsPruned))
	m["stdata.serve_query_warm_ms"] = median(warmMS)
	m["stdata.json_ns_per_record"] = max(0, ratio(jsonNS, float64(jsonRecs)))
	m["summary.approx_ms"] = median(approxMS)
	m["summary.bytes_read_share"] = ratio(float64(approxBytes), float64(exactBytes))
	m["summary.bound_rel"] = mean(boundRel)
	m["summary.fallbacks"] = float64(fallbacks)
	return nil
}
