// Command stbench regenerates the paper's evaluation tables and figures
// (§5–§6) against the synthetic corpora and prints them as text tables.
//
// Usage:
//
//	stbench -exp all
//	stbench -exp fig7 -events 500000 -trajs 50000 -windows 10
//	stbench -exp table8
//
// Absolute times reflect this machine and the laptop-scale corpora; the
// shapes (who wins, by what factor) are what reproduce the paper. See
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"st4ml/internal/bench"
	"st4ml/internal/engine"
	"st4ml/internal/trace"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: fig5|blocks|encode|compact|approx|pointpat|fig6|table5|table6|fig7|table8|fig9|table9|ablation|fig7sweep|serve|cluster|subscribe|all")
		events    = flag.Int("events", 200_000, "NYC-like event count")
		trajs     = flag.Int("trajs", 20_000, "Porto-like trajectory count")
		pois      = flag.Int("pois", 100_000, "OSM-like POI count")
		areas     = flag.Int("areas", 400, "OSM-like area count")
		airSta    = flag.Int("airsta", 40, "air-quality stations (before x4 replication)")
		windows   = flag.Int("windows", 10, "query windows per application")
		clients   = flag.Int("clients", 8, "concurrent HTTP clients for -exp serve")
		slots     = flag.Int("slots", 0, "executor slots (0 = GOMAXPROCS)")
		workdir   = flag.String("workdir", "", "work directory for stores (default: temp)")
		spec      = flag.Bool("speculation", false, "speculatively re-execute straggler tasks")
		chaos     = flag.Int64("chaos", 0, "fault-injection seed (0 = off): run under a 10% transient task-failure/corruption plan to exercise retries")
		traceFile = flag.String("trace", "", "write a Chrome trace-event dump of the whole run to this file")
		jsonFile  = flag.String("json", "", "append machine-readable result rows (one JSON object per line) to this file")
	)
	flag.Parse()
	cfg := engine.Config{Slots: *slots, Speculation: *spec}
	if *chaos != 0 {
		cfg.Faults = &engine.FaultPlan{
			Seed: *chaos, FailRate: 0.1, CorruptRate: 0.1,
		}
	}
	var tr *trace.Tracer
	if *traceFile != "" {
		// Every experiment funnels through one Context, so one tracer on the
		// engine config captures the whole invocation.
		tr = trace.New()
		cfg.Tracer = tr
	}
	jsonOut, closeJSON, err := openJSON(*jsonFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(1)
	}
	defer closeJSON()
	err = run(*exp, cfg, bench.Scale{
		Events: *events, Trajs: *trajs, POIs: *pois, Areas: *areas, AirSta: *airSta,
	}, *windows, *clients, *workdir, jsonOut)
	if err == nil && *traceFile != "" {
		err = writeTrace(*traceFile, tr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(1)
	}
}

// openJSON opens the -json row sink for appending. Without a path the sink
// is a nil io.Writer — a nil interface, which run reads as "no sink"; a nil
// *os.File wrapped in the interface would not be nil and would fail the
// first row written to it.
func openJSON(path string) (io.Writer, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
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

func run(exp string, cfg engine.Config, scale bench.Scale, windows, clients int, workdir string, jsonOut io.Writer) error {
	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	// emit appends one machine-readable row per result to -json, so
	// successive runs build a perf trajectory across commits.
	emit := func(exp string, row any) error {
		if jsonOut == nil {
			return nil
		}
		return bench.WriteJSONRow(jsonOut, exp, row)
	}
	ctx := engine.New(cfg)
	// Every experiment path below funnels through ctx, so the counter table
	// printed on exit aggregates the whole invocation.
	defer func() {
		bench.EngineCountersTable(ctx.Metrics.Snapshot()).Fprint(os.Stdout)
	}()

	// Table 8 needs no environment.
	if all || want["table8"] {
		rows, err := bench.Table8()
		if err != nil {
			return err
		}
		bench.Table8Table(rows).Fprint(os.Stdout)
	}
	// Case studies need only the synthetic city.
	if all || want["fig9"] || want["table9"] {
		city := bench.NewCaseStudyCity()
		if all || want["fig9"] {
			bench.Fig9Table(bench.Fig9(ctx, city, 7, 300)).Fprint(os.Stdout)
		}
		if all || want["table9"] {
			bench.Table9Table(bench.Table9(ctx, city, 2, 400)).Fprint(os.Stdout)
		}
	}
	// The point-pattern benchmark runs on in-memory corpora — no store, no
	// environment — so it precedes the workdir setup.
	if all || want["pointpat"] {
		rows, err := bench.PointPat(ctx, []int{2000, 5000, 12000}, 8)
		if err != nil {
			return err
		}
		bench.PointPatTable(rows).Fprint(os.Stdout)
		for _, row := range rows {
			if err := bench.WriteJSONRow(os.Stdout, "pointpat", row); err != nil {
				return err
			}
			if err := emit("pointpat", row); err != nil {
				return err
			}
		}
	}
	needEnv := all || want["fig5"] || want["blocks"] || want["encode"] || want["compact"] ||
		want["fig6"] || want["table5"] || want["table6"] || want["fig7"] || want["ablation"] ||
		want["fig7sweep"]
	if !needEnv && !want["serve"] && !want["cluster"] && !want["subscribe"] && !want["approx"] {
		return nil
	}

	if workdir == "" {
		dir, err := os.MkdirTemp("", "stbench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		workdir = dir
	}

	// The serving benchmark builds its own (smaller) store; it does not need
	// the full multi-system environment.
	if all || want["serve"] {
		res, err := bench.Serve(ctx, workdir, scale.Events/2, clients, windows)
		if err != nil {
			return err
		}
		bench.ServeTable(res).Fprint(os.Stdout)
		if err := bench.WriteJSONRow(os.Stdout, "serve", res); err != nil {
			return err
		}
		if err := emit("serve", res); err != nil {
			return err
		}
	}
	// The approximate-tier benchmark compares summary-sidecar aggregates
	// against the exact scan path at 1%/10%/50% selectivity; it builds its
	// own summarized store.
	if all || want["approx"] {
		rows, err := bench.Approx(ctx, workdir, scale.Events/2, windows,
			[]float64{0.01, 0.1, 0.5})
		if err != nil {
			return err
		}
		bench.ApproxTable(rows).Fprint(os.Stdout)
		for _, row := range rows {
			if err := bench.WriteJSONRow(os.Stdout, "approx", row); err != nil {
				return err
			}
			if err := emit("approx", row); err != nil {
				return err
			}
		}
	}
	// The push-path benchmark fans committed delta batches out to standing
	// subscriptions; like serve, it builds its own store per subscriber count.
	if all || want["subscribe"] {
		rows, err := bench.Subscribe(ctx, workdir, scale.Events/2, 8, 2000, []int{1, 16, 256})
		if err != nil {
			return err
		}
		bench.SubscribeTable(rows).Fprint(os.Stdout)
		for _, row := range rows {
			if err := bench.WriteJSONRow(os.Stdout, "subscribe", row); err != nil {
				return err
			}
			if err := emit("subscribe", row); err != nil {
				return err
			}
		}
	}
	// The cluster benchmark compares a lone daemon against routed 2- and
	// 4-shard fleets over one store; like serve, it builds its own.
	if all || want["cluster"] {
		rows, err := bench.Cluster(ctx, workdir, scale.Events/2, clients, windows)
		if err != nil {
			return err
		}
		bench.ClusterTable(rows).Fprint(os.Stdout)
		for _, row := range rows {
			if err := bench.WriteJSONRow(os.Stdout, "cluster", row); err != nil {
				return err
			}
			if err := emit("cluster", row); err != nil {
				return err
			}
		}
	}
	if !needEnv {
		return nil
	}
	fmt.Fprintf(os.Stderr, "stbench: preparing corpora (events=%d trajs=%d pois=%d) ...\n",
		scale.Events, scale.Trajs, scale.POIs)
	env, err := bench.NewEnv(ctx, workdir, scale)
	if err != nil {
		return err
	}

	if all || want["fig5"] {
		rows := bench.Fig5(env, []float64{0.05, 0.1, 0.2, 0.4, 0.8}, windows)
		bench.Fig5Table(rows).Fprint(os.Stdout)
		for _, r := range rows {
			if err := emit("fig5", r); err != nil {
				return err
			}
		}
	}
	// The storage-format comparison rides with fig5: same selection shape,
	// but v1 vs v2 on-disk layouts instead of native vs indexed paths.
	if all || want["fig5"] || want["blocks"] {
		rows, err := bench.FigBlocks(env, workdir, []float64{0.05, 0.1, 0.2, 0.4, 0.8}, windows)
		if err != nil {
			return err
		}
		bench.FigBlocksTable(rows).Fprint(os.Stdout)
		for _, r := range rows {
			if err := emit("blocks", r); err != nil {
				return err
			}
		}
	}
	// The storage-format-v3 headline: all three generations at their
	// defaults under the same window workload, with the v2-gzip/v3 ratios
	// summarized for the smallest range fraction.
	if all || want["encode"] {
		rows, sum, err := bench.EncodeBench(env, workdir, []float64{0.01, 0.05, 0.1, 0.4}, windows)
		if err != nil {
			return err
		}
		bench.EncodeTable(rows).Fprint(os.Stdout)
		bench.EncodeSummaryTable(sum).Fprint(os.Stdout)
		for _, r := range rows {
			if err := emit("encode", r); err != nil {
				return err
			}
		}
		if err := emit("encode_summary", sum); err != nil {
			return err
		}
	}
	// The delta-layer experiment: the same corpus queried as one-shot
	// rebuild, base+streamed deltas, and post-compaction, with the selected
	// counts cross-checked between the three states.
	if all || want["compact"] {
		rows, sum, err := bench.CompactExp(env, workdir, []float64{0.05, 0.1, 0.2, 0.4, 0.8}, windows, 8)
		if err != nil {
			return err
		}
		bench.FigCompactTable(rows).Fprint(os.Stdout)
		bench.CompactSummaryTable(sum).Fprint(os.Stdout)
		for _, r := range rows {
			if err := emit("compact", r); err != nil {
				return err
			}
		}
		if err := emit("compact_summary", sum); err != nil {
			return err
		}
	}
	if all || want["fig6"] {
		rows := bench.Fig6(env, []int{16, 64, 256}, []int{4, 8, 16}, []int{4, 8, 12})
		bench.Fig6Table(rows).Fprint(os.Stdout)
	}
	if all || want["table5"] {
		rows := bench.Table5(env, 1024, 32, 32)
		bench.Table5Table(rows).Fprint(os.Stdout)
	}
	if all || want["table6"] {
		res, err := bench.Table6(env, workdir, 64, windows)
		if err != nil {
			return err
		}
		bench.Table6Table(res).Fprint(os.Stdout)
	}
	if all || want["fig7"] {
		rows, err := bench.Fig7(env, bench.AllApps, bench.AllSystems, 0.3, windows)
		if err != nil {
			return err
		}
		bench.Fig7Table(rows).Fprint(os.Stdout)
	}
	if all || want["ablation"] {
		bench.AblationTable(env, workdir).Fprint(os.Stdout)
	}
	// The data-scale sweep rebuilds sub-environments, so it runs only when
	// asked for explicitly.
	if want["fig7sweep"] {
		rows, err := bench.Fig7Sweep(ctx, workdir, scale,
			[]float64{0.25, 0.5, 1.0}, bench.AllApps, bench.AllSystems, 0.3, windows)
		if err != nil {
			return err
		}
		bench.Fig7SweepTable(rows).Fprint(os.Stdout)
	}
	return nil
}
