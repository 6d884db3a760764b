package main

// This file is the benchmark's catalog: the workloads and every metric, by
// the names BENCHMARK.json lists and later issues refer to. BENCHMARK.json
// carries only what the driver's schema allows (name, unit, direction,
// bound); the layer each per-layer metric belongs to and the end-to-end
// metric it should move live here and in BENCHMARK.md. The smoke test pins
// this catalog against BENCHMARK.json so the two cannot drift.

// Workload names.
const (
	wlServeCold     = "serve_cold"
	wlServeHot      = "serve_hot"
	wlRouted        = "routed"
	wlIngestLive    = "ingest_live"
	wlPipelineBatch = "pipeline_batch"
)

// workloadNames lists the workloads in `-workload all` order.
var workloadNames = []string{wlServeCold, wlServeHot, wlRouted, wlIngestLive, wlPipelineBatch}

// metricDef describes one metric of the catalog.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression
	// (end-to-end metrics only).
	Bound float64
	// Moves names the end-to-end metric @ workload this per-layer metric is
	// predicted to move (per-layer metrics only).
	Moves string
}

// endToEnd lists the metrics a user of the system sees; every workload
// emits every one of them in an untraced run. The three class latencies
// (approx, push, read_delta) exist on one workload each; on the others they
// repeat p50_ms (see BENCHMARK.md, "One metric set for five workloads").
// fail_share is printed by name but is not gated as a metric: it is zero
// on a healthy run, and the result line's failed/attempted carry it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_record", Unit: "bytes/rec", Better: "lower", Bound: 0.02},
	{Name: "approx_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "push_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_delta_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the single-layer metrics a traced run emits, grouped by
// the module whose public calls they time or whose counters they read.
var perLayer = []metricDef{
	// codec: row and column codecs over a sample of the workload's records.
	{Name: "codec.row_decode_ns_per_rec", Unit: "ns/rec", Better: "lower", Moves: "read_delta_p50_ms@ingest_live"},
	{Name: "codec.row_encode_ns_per_rec", Unit: "ns/rec", Better: "lower", Moves: "p95_ms,ops_per_s@ingest_live"},
	{Name: "codec.col_decode_ns_per_val", Unit: "ns/val", Better: "lower", Moves: "p50_ms@serve_cold,pipeline_batch"},
	{Name: "codec.col_bytes_per_val", Unit: "bytes/val", Better: "lower", Moves: "disk_bytes_per_record@all"},

	// storage: block reads, the delta layer, compaction.
	{Name: "storage.read_pruned_ms_per_part", Unit: "ms", Better: "lower", Moves: "p50_ms,ops_per_s@serve_cold,pipeline_batch"},
	{Name: "storage.bytes_read_per_op", Unit: "bytes/op", Better: "lower", Moves: "p50_ms,ops_per_s@serve_cold,pipeline_batch"},
	{Name: "storage.blocks_scanned_share", Unit: "share", Better: "lower", Moves: "p50_ms,ops_per_s@serve_cold,pipeline_batch"},
	{Name: "storage.records_pruned_share", Unit: "share", Better: "higher", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "storage.append_ms_per_batch", Unit: "ms", Better: "lower", Moves: "p95_ms,ops_per_s@ingest_live"},
	{Name: "storage.delta_files_per_read", Unit: "1/read", Better: "lower", Moves: "read_delta_p50_ms@ingest_live"},
	{Name: "storage.delta_records_per_read", Unit: "1/read", Better: "lower", Moves: "read_delta_p50_ms@ingest_live"},
	{Name: "storage.compact_ms_per_pass", Unit: "ms", Better: "lower", Moves: "ops_per_s@ingest_live"},
	{Name: "storage.compact_bytes_rewritten_per_pass", Unit: "bytes", Better: "lower", Moves: "ops_per_s@ingest_live"},
	{Name: "storage.write_amp", Unit: "ratio", Better: "lower", Moves: "disk_bytes_per_record,ops_per_s@ingest_live"},

	// index: the 3-d R-tree.
	{Name: "index.rtree_build_ns_per_item", Unit: "ns/item", Better: "lower", Moves: "p50_ms@serve_cold;p95_ms@pipeline_batch"},
	{Name: "index.rtree_probe_us", Unit: "us", Better: "lower", Moves: "p50_ms@serve_hot,routed"},
	{Name: "index.rtree_hits_per_probe", Unit: "1/probe", Better: "lower", Moves: "p50_ms@serve_hot,routed"},

	// partition: the ingest planner.
	{Name: "partition.plan_ms", Unit: "ms", Better: "lower", Moves: "setup_s@all"},
	{Name: "partition.size_cv", Unit: "ratio", Better: "lower", Moves: "setup_s@all;p95_ms@serve_cold"},

	// selection: the batch Selection stage.
	{Name: "selection.select_pruned_ms", Unit: "ms", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "selection.partitions_loaded_share", Unit: "share", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "selection.selected_per_loaded", Unit: "share", Better: "higher", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "selection.bytes_decoded_per_op", Unit: "bytes/op", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},

	// convert: singular -> collective conversions.
	{Name: "convert.event_to_ts_ms", Unit: "ms", Better: "lower", Moves: "p50_ms,p95_ms@pipeline_batch"},
	{Name: "convert.traj_to_sm_ms", Unit: "ms", Better: "lower", Moves: "p50_ms,p95_ms@pipeline_batch"},
	{Name: "convert.traj_to_raster_ms", Unit: "ms", Better: "lower", Moves: "p50_ms,p95_ms@pipeline_batch"},

	// extract: built-in extractors plus driver-side collect.
	{Name: "extract.ms_per_op", Unit: "ms", Better: "lower", Moves: "p50_ms@pipeline_batch"},

	// engine: the execution engine's own counters.
	{Name: "engine.tasks_per_op", Unit: "1/op", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "engine.task_time_ms_per_op", Unit: "ms", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "engine.sched_overhead_share", Unit: "share", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "engine.shuffle_bytes_per_op", Unit: "bytes/op", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "engine.retries", Unit: "count", Better: "lower", Moves: "p50_ms,ops_per_s@pipeline_batch"},
	{Name: "engine.shuffle_bytes_per_setup", Unit: "bytes", Better: "lower", Moves: "setup_s@all"},

	// stdata: the schema registry's serving entry points.
	{Name: "stdata.load_partition_ms", Unit: "ms", Better: "lower", Moves: "p50_ms@serve_cold"},
	{Name: "stdata.serve_query_warm_ms", Unit: "ms", Better: "lower", Moves: "p50_ms,ops_per_s@serve_hot,routed"},
	{Name: "stdata.json_ns_per_record", Unit: "ns/rec", Better: "lower", Moves: "p50_ms,ops_per_s@serve_hot,routed"},

	// serve: the daemon.
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower", Moves: "p50_ms@serve_hot"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower", Moves: "p50_ms@serve_hot"},
	{Name: "serve.resp_bytes_per_op", Unit: "bytes/op", Better: "lower", Moves: "p50_ms@serve_hot"},
	{Name: "serve.result_hit_us", Unit: "us", Better: "lower", Moves: "none today (kept for the Plan/executor refactor)"},
	{Name: "serve.partition_hit_ratio", Unit: "share", Better: "higher", Moves: "ops_per_s@serve_cold"},
	{Name: "serve.partition_loads_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s@serve_cold"},
	{Name: "serve.evictions_per_op", Unit: "1/op", Better: "lower", Moves: "ops_per_s@serve_cold"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "fail_share@all"},
	{Name: "serve.timeouts", Unit: "count", Better: "lower", Moves: "fail_share@all"},

	// cluster: the router.
	{Name: "cluster.router_overhead_ms", Unit: "ms", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.router_overhead_share", Unit: "share", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.rpcs_per_op", Unit: "1/op", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.scatter_width", Unit: "1/op", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.shard_resp_bytes_per_op", Unit: "bytes/op", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.dedup_drops", Unit: "count", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},
	{Name: "cluster.replans", Unit: "count", Better: "lower", Moves: "p50_ms,ops_per_s@routed"},

	// subscribe: standing queries.
	{Name: "subscribe.match_us_per_batch", Unit: "us", Better: "lower", Moves: "push_p50_ms,p95_ms@ingest_live"},
	{Name: "subscribe.hub_push_ms", Unit: "ms", Better: "lower", Moves: "push_p50_ms,p95_ms@ingest_live"},
	{Name: "subscribe.events_pushed_per_batch", Unit: "1/batch", Better: "lower", Moves: "push_p50_ms,p95_ms@ingest_live"},
	{Name: "subscribe.dropped", Unit: "count", Better: "lower", Moves: "fail_share@ingest_live"},
	{Name: "subscribe.resyncs", Unit: "count", Better: "lower", Moves: "fail_share@ingest_live"},

	// summary: the approximate tier.
	{Name: "summary.approx_ms", Unit: "ms", Better: "lower", Moves: "approx_p50_ms@serve_cold"},
	{Name: "summary.bytes_read_share", Unit: "share", Better: "lower", Moves: "approx_p50_ms@serve_cold"},
	{Name: "summary.bound_rel", Unit: "ratio", Better: "lower", Moves: "approx_p50_ms@serve_cold"},
	{Name: "summary.fallbacks", Unit: "count", Better: "lower", Moves: "approx_p50_ms@serve_cold"},
	{Name: "summary.sidecar_bytes_per_record", Unit: "bytes/rec", Better: "lower", Moves: "disk_bytes_per_record@serve_cold"},

	// client: what the replay's own client saw (ungated tails and counts).
	{Name: "client.p99_ms", Unit: "ms", Better: "lower", Moves: "p95_ms@all"},
	{Name: "client.max_ms", Unit: "ms", Better: "lower", Moves: "p95_ms@all"},
	{Name: "client.samples", Unit: "count", Better: "higher", Moves: "none (sample count behind the replay's percentiles)"},
	{Name: "client.replay_overhead_share", Unit: "share", Better: "lower", Moves: "none (cost of recording spans)"},
	{Name: "client.fail_share", Unit: "share", Better: "lower", Moves: "fail_share@all"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitOf returns the catalog unit of a metric name.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the catalog")
}
