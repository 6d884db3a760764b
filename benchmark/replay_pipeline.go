package main

import (
	"context"
	"time"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// replay is the traced run of pipeline_batch: the first n ops, each walked
// stage by stage — SelectPruned (which materialises eagerly, so it can be
// timed from outside), the conversion forced with Count() on a cached RDD,
// the extractor plus collect — and then the op's storage reads on their
// own (ReadPartitionPruned with the op's window over the partitions the
// metadata keeps). Engine counters are read as deltas over the ops.
func (w *pipelineWorkload) replay(ctx context.Context, rec *recorder, n int) (map[string]float64, error) {
	m := layerMetrics{}

	m.probeCodec(rec, w.events)
	evMeta, err := storage.ReadMetadata(w.evDir)
	if err != nil {
		return nil, err
	}
	trMeta, err := storage.ReadMetadata(w.trDir)
	if err != nil {
		return nil, err
	}
	boxes, err := eventBoxes(w.evDir, evMeta)
	if err != nil {
		return nil, err
	}
	m.probeIndex(rec, boxes, w.evWins)
	all := make([]index.Box, len(w.events))
	for i, e := range w.events {
		all[i] = e.Box()
	}
	m.probePartition(rec, partition.TSTR{GT: 12, GS: 8}, all, evMeta)
	m["engine.shuffle_bytes_per_setup"] = float64(w.setupShuffleBytes)

	var lat []float64
	var acc pipeWalk
	var failed int
	var jobs time.Duration // wall inside engine jobs
	before := w.ctx.Metrics.Snapshot()
	start := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		app, win := w.opOf(int64(i))
		root := rec.start(nil, i, "op."+appNames[app])
		var res appResult
		err := engine.Try(func() { res = w.walkApp(rec, root, i, app, win, &acc) })
		d := root.end()
		jobs += d
		lat = append(lat, ms(d))
		if err != nil || !res.same(w.want[win*numApps+app], app) {
			failed++
		}
	}
	wall := time.Since(start)
	after := w.ctx.Metrics.Snapshot()
	ops := float64(len(lat))

	st, convMS := acc.stats, acc.convMS
	m["selection.select_pruned_ms"] = median(acc.selectMS)
	m["selection.partitions_loaded_share"] = ratio(float64(st.LoadedPartitions), float64(st.TotalPartitions))
	m["selection.selected_per_loaded"] = ratio(float64(st.SelectedRecords), float64(st.LoadedRecords))
	m["selection.bytes_decoded_per_op"] = ratio(float64(st.DecompressedBytes), ops)
	m["storage.blocks_scanned_share"] = ratio(float64(st.BlocksScanned), float64(st.BlocksTotal))
	m["storage.records_pruned_share"] = ratio(float64(st.RecordsPruned), float64(st.LoadedRecords))
	m["convert.event_to_ts_ms"] = median(convMS[appHourlyFlow])
	m["convert.traj_to_sm_ms"] = median(convMS[appGridSpeed])
	m["convert.traj_to_raster_ms"] = median(convMS[appTransition])
	m["extract.ms_per_op"] = mean(acc.extractMS)
	taskTime := after.TaskTime - before.TaskTime
	m["engine.tasks_per_op"] = ratio(float64(after.TasksRun-before.TasksRun), ops)
	m["engine.task_time_ms_per_op"] = ratio(ms(taskTime), ops)
	m["engine.sched_overhead_share"] = 1 - ratio(float64(taskTime), float64(jobs)*float64(w.ctx.Slots()))
	m["engine.shuffle_bytes_per_op"] = ratio(float64(after.ShuffleBytes-before.ShuffleBytes), ops)
	m["engine.retries"] = float64(after.TaskRetries - before.TaskRetries)
	m.clientMetrics(lat, failed, rec, wall)

	// The ops' storage reads on their own: what SelectPruned asks the
	// block layer for, without selection, index or engine around it.
	var readMS []float64
	var bytesRead int64
	for i := 0; i < n && ctx.Err() == nil; i++ {
		app, win := w.opOf(int64(i))
		root := rec.start(nil, i, "walk.storage")
		var ds []time.Duration
		var b int64
		if app == appAnomaly || app == appHourlyFlow {
			ds, b, err = readWindow(rec, root, i, w.evDir, evMeta, stdata.EventRecC, w.evWins[win])
		} else {
			ds, b, err = readWindow(rec, root, i, w.trDir, trMeta, stdata.TrajRecC, w.trajWins[win])
		}
		root.end()
		if err != nil {
			return nil, err
		}
		readMS = append(readMS, msOf(ds)...)
		bytesRead += b
	}
	m["storage.read_pruned_ms_per_part"] = mean(readMS)
	m["storage.bytes_read_per_op"] = ratio(float64(bytesRead), ops)
	return m, ctx.Err()
}

// pipeWalk accumulates what the walked ops did: the selection stats summed
// and the stage durations.
type pipeWalk struct {
	stats               selection.Stats
	selectMS, extractMS []float64
	convMS              [numApps][]float64
}

// walkApp runs one op stage by stage under root. It panics like runApp's
// body does; the caller wraps it in engine.Try.
func (w *pipelineWorkload) walkApp(rec *recorder, root *open, op, app, win int, acc *pipeWalk) (res appResult) {
	st := &acc.stats
	add := func(s selection.Stats) {
		res.Selected = s.SelectedRecords
		st.TotalPartitions += s.TotalPartitions
		st.LoadedPartitions += s.LoadedPartitions
		st.LoadedRecords += s.LoadedRecords
		st.SelectedRecords += s.SelectedRecords
		st.DecompressedBytes += s.DecompressedBytes
		st.BlocksTotal += s.BlocksTotal
		st.BlocksScanned += s.BlocksScanned
		st.RecordsPruned += s.RecordsPruned
	}
	// stage times one conversion (forced) and its extraction.
	stage := func(convName string, force func(), extractName string, extract func()) {
		acc.convMS[app] = append(acc.convMS[app], ms(rec.timed(root, op, convName, force)))
		acc.extractMS = append(acc.extractMS, ms(rec.timed(root, op, extractName, extract)))
	}
	switch app {
	case appAnomaly, appHourlyFlow:
		var recs *engine.RDD[stdata.EventRec]
		d := rec.timed(root, op, "selection.SelectPruned", func() {
			r, s, err := w.evSel.SelectPruned(w.evDir, w.evWins[win])
			if err != nil {
				panic(err)
			}
			recs = r
			add(s)
		})
		acc.selectMS = append(acc.selectMS, ms(d))
		events := engine.Map(recs, stdata.EventRec.ToEvent)
		if app == appAnomaly {
			acc.extractMS = append(acc.extractMS, ms(rec.timed(root, op, "extract.EventAnomaly+Count", func() {
				res.Checksum = float64(anomalyCount(events))
			})))
			return res
		}
		cells := w.eventToTS(events, w.evWins[win]).Cache()
		stage("convert.EventToTimeSeries", func() { cells.Count() },
			"extract.TsFlow", func() { res.Checksum = flowChecksum(cells) })
	default:
		var recs *engine.RDD[stdata.TrajRec]
		d := rec.timed(root, op, "selection.SelectPruned", func() {
			r, s, err := w.trSel.SelectPruned(w.trDir, w.trajWins[win])
			if err != nil {
				panic(err)
			}
			recs = r
			add(s)
		})
		acc.selectMS = append(acc.selectMS, ms(d))
		trajs := engine.Map(recs, stdata.TrajRec.ToTrajectory)
		if app == appGridSpeed {
			cells := w.trajToSM(trajs).Cache()
			stage("convert.TrajToSpatialMap", func() { cells.Count() },
				"extract.SmSpeed", func() { res.Checksum = speedChecksum(cells) })
			return res
		}
		cells := w.trajToRaster(trajs, w.trajWins[win]).Cache()
		stage("convert.TrajToRaster", func() { cells.Count() },
			"extract.RasterFlow", func() { res.Checksum = transitChecksum(cells) })
	}
	return res
}

// readWindow reads, block-pruned by win, every partition the metadata
// keeps for win, and returns each read's duration and the on-disk bytes
// they touched.
func readWindow[T any](rec *recorder, root *open, op int, dir string, meta *storage.Metadata,
	c codec.Codec[T], win selection.Window,
) (ds []time.Duration, bytesRead int64, err error) {
	boxes := []index.Box{win.Box()}
	for _, id := range meta.Prune(win.Space, win.Time) {
		var rst storage.ReadStats
		var rerr error
		d := rec.timed(root, op, "storage.ReadPartitionPruned", func() {
			_, rst, rerr = storage.ReadPartitionPruned(dir, meta, id, c, boxes)
		})
		if rerr != nil {
			return nil, 0, rerr
		}
		ds = append(ds, d)
		bytesRead += rst.BytesRead
	}
	return ds, bytesRead, nil
}
