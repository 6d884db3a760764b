package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"st4ml/internal/codec"
	"st4ml/internal/index"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/subscribe"
)

// opsPerCycle is how many client operations one ingest_live cycle holds:
// the append and its reads.
const opsPerCycle = 1 + readsPerCycle

// replay is the traced run of ingest_live: n/opsPerCycle cycles, each
// walked through the layers' public functions — AppendDelta (the storage
// write, with the hub's push riding on its commit hook), the subscription
// index match, the drain, a compaction on the cadence, and the reads, one
// of which is also walked through the storage read to count the delta
// files it merges. The first half of the cycles run with the standing
// subscriptions, the second half without: the difference in append time
// is what the hub adds to a commit.
func (w *ingestWorkload) replay(ctx context.Context, rec *recorder, n int) (map[string]float64, error) {
	m := layerMetrics{}
	cycles := max(2, min(n/opsPerCycle, len(w.batches)))

	m.probeCodec(rec, w.base)
	meta, err := storage.ReadMetadata(w.dir)
	if err != nil {
		return nil, err
	}
	boxes, err := eventBoxes(w.dir, meta)
	if err != nil {
		return nil, err
	}
	m.probeIndex(rec, boxes, w.windows)
	all := make([]index.Box, len(w.base))
	for i, e := range w.base {
		all[i] = e.Box()
	}
	m.probePartition(rec, nycSchema().DefaultPlanner(8, 4), all, meta)
	m["engine.shuffle_bytes_per_setup"] = float64(w.setupShuffleBytes)

	// The hub's inverted index, rebuilt from public parts: the standing
	// windows are the indexed boxes, a batch's records the probes.
	subIdx := subscribe.NewSubIndex()
	for s, win := range w.standing {
		subIdx.Insert(int64(s), win.Box())
	}

	// Bytes the delta layer writes, from the storage commit hook.
	var deltaBytes int64
	cancel := storage.OnCommit(w.dir, func(ev storage.CommitEvent) error {
		for _, dm := range ev.Deltas {
			deltaBytes += dm.Bytes
		}
		return nil
	})
	defer cancel()

	hubBefore := w.srv.Hub().Stats()
	before := readDaemons([]*serve.Server{w.srv})
	handler := w.srv.Handler()
	var lat, appendSubs, appendBare, matchUS, readMS []float64
	var deltaFiles, deltaRecs, walkedReads int64
	var partMS []float64
	var bytesRead, respBytes, blocks, scanned int64
	var userBytes, compactBytes int64
	var compactMS []float64
	var failed, reads, withSubs int
	start := time.Now()
	for c := 0; c < cycles && ctx.Err() == nil; c++ {
		if c == cycles/2 {
			// From here on nobody is subscribed.
			for _, sub := range w.subs {
				sub.Close()
			}
			w.subs = nil
		}
		j := w.appended
		batch := w.batches[j]
		root := rec.start(nil, c, "cycle")

		var aerr error
		d := rec.timed(root, c, "storage.AppendDelta", func() {
			_, aerr = storage.AppendDelta(w.dir, stdata.EventRecC, batch, stdata.EventRec.Box,
				storage.AppendOptions{BatchID: fmt.Sprintf("live-%d", j)})
		})
		if aerr != nil {
			return nil, aerr
		}
		w.noteAppended()
		lat = append(lat, ms(d))
		for _, e := range batch {
			userBytes += int64(len(codec.Marshal(stdata.EventRecC, e)))
		}

		if len(w.subs) > 0 {
			appendSubs = append(appendSubs, ms(d))
			withSubs++
			matched := 0
			d = rec.timed(root, c, "subscribe.SubIndex.Match", func() {
				for _, e := range batch {
					subIdx.Match(e.Box(), func(int64) { matched++ })
				}
			})
			matchUS = append(matchUS, us(d))
			var want int64
			for s := range w.standing {
				want += w.standBatch[j][s].Count
			}
			var drained bool
			rec.timed(root, c, "subscribe.Subscriber.Next(drain)", func() { drained = w.drain(j) })
			if !drained || int64(matched) != want {
				failed++
			}
		} else {
			appendBare = append(appendBare, ms(d))
		}

		if w.appended%compactEvery == 0 {
			var st storage.CompactStats
			var cerr error
			d = rec.timed(root, c, "storage.Compact", func() {
				st, cerr = storage.Compact(w.dir, stdata.EventRecC, stdata.EventRec.Box,
					storage.CompactOptions{MinDeltas: 1})
			})
			if cerr != nil {
				return nil, cerr
			}
			compactMS = append(compactMS, ms(d))
			compactBytes += st.BytesRewritten
		}

		for r := 0; r < readsPerCycle; r++ {
			idx := int(w.reads % int64(len(w.bodies)))
			w.reads++
			var code int
			var body []byte
			d = rec.timed(root, c, "serve.Handler.ServeHTTP(read)", func() {
				code, body = callHandler(handler, http.MethodPost, "/query", w.bodies[idx])
			})
			reads++
			respBytes += int64(len(body))
			lat = append(lat, ms(d))
			readMS = append(readMS, ms(d))
			if code != http.StatusOK || scanIDs(body) != w.cur[idx] {
				failed++
			}
			if r > 0 {
				continue
			}
			// Walk the first read of the cycle through the storage read to
			// count what merge-on-read merges.
			cur, err := storage.ReadMetadata(w.dir)
			if err != nil {
				return nil, err
			}
			win := w.windows[idx]
			for _, id := range cur.Prune(win.Space, win.Time) {
				var rst storage.ReadStats
				var rerr error
				d = rec.timed(root, c, "storage.ReadPartitionPruned", func() {
					_, rst, rerr = storage.ReadPartitionPruned(w.dir, cur, id, stdata.EventRecC, nil)
				})
				if rerr != nil {
					return nil, rerr
				}
				partMS = append(partMS, ms(d))
				bytesRead += rst.BytesRead
				blocks += int64(rst.Blocks)
				scanned += int64(rst.BlocksScanned)
				deltaFiles += int64(rst.DeltasRead)
				deltaRecs += rst.DeltaRecords
			}
			walkedReads++
		}
		root.end()
	}
	wall := time.Since(start)

	hub := w.srv.Hub().Stats()
	m["storage.append_ms_per_batch"] = median(appendBare)
	m["storage.read_pruned_ms_per_part"] = mean(partMS)
	m["storage.bytes_read_per_op"] = ratio(float64(bytesRead), float64(walkedReads))
	m["storage.blocks_scanned_share"] = ratio(float64(scanned), float64(blocks))
	m["serve.resp_bytes_per_op"] = ratio(float64(respBytes), float64(reads))
	m["storage.delta_files_per_read"] = ratio(float64(deltaFiles), float64(walkedReads))
	m["storage.delta_records_per_read"] = ratio(float64(deltaRecs), float64(walkedReads))
	m["storage.compact_ms_per_pass"] = mean(compactMS)
	m["storage.compact_bytes_rewritten_per_pass"] = ratio(float64(compactBytes), float64(len(compactMS)))
	m["storage.write_amp"] = ratio(float64(deltaBytes+compactBytes), float64(userBytes))
	m["subscribe.match_us_per_batch"] = median(matchUS)
	m["subscribe.hub_push_ms"] = median(appendSubs) - median(appendBare)
	m["subscribe.events_pushed_per_batch"] = ratio(float64(hub.EventsPushed-hubBefore.EventsPushed), float64(withSubs))
	m["subscribe.dropped"] = float64(hub.EventsDropped - hubBefore.EventsDropped)
	m["subscribe.resyncs"] = float64(hub.Resyncs - hubBefore.Resyncs)
	m["serve.handler_ms"] = median(readMS)
	m.serveCounters(readDaemons([]*serve.Server{w.srv}).minus(before), reads)
	m.clientMetrics(lat, failed, rec, wall)
	return m, ctx.Err()
}
