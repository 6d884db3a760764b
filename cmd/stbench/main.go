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
	"os"
	"strings"

	"st4ml/internal/bench"
	"st4ml/internal/engine"
	"st4ml/internal/trace"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: fig5|fig6|table5|table6|fig7|table8|fig9|table9|ablation|fig7sweep|all")
		events    = flag.Int("events", 200_000, "NYC-like event count")
		trajs     = flag.Int("trajs", 20_000, "Porto-like trajectory count")
		pois      = flag.Int("pois", 100_000, "OSM-like POI count")
		areas     = flag.Int("areas", 400, "OSM-like area count")
		airSta    = flag.Int("airsta", 40, "air-quality stations (before x4 replication)")
		windows   = flag.Int("windows", 10, "query windows per application")
		slots     = flag.Int("slots", 0, "executor slots (0 = GOMAXPROCS)")
		workdir   = flag.String("workdir", "", "work directory for stores (default: temp)")
		spec      = flag.Bool("speculation", false, "speculatively re-execute straggler tasks")
		chaos     = flag.Int64("chaos", 0, "fault-injection seed (0 = off): run under a 10% transient task-failure/corruption plan to exercise retries")
		traceFile = flag.String("trace", "", "write a Chrome trace-event dump of the whole run to this file")
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
	err := run(*exp, cfg, bench.Scale{
		Events: *events, Trajs: *trajs, POIs: *pois, Areas: *areas, AirSta: *airSta,
	}, *windows, *workdir)
	if err == nil && *traceFile != "" {
		err = writeTrace(*traceFile, tr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(1)
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

func run(exp string, cfg engine.Config, scale bench.Scale, windows int, workdir string) error {
	want := map[string]bool{}
	for _, e := range strings.Split(exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
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
	needEnv := all || want["fig5"] || want["fig6"] || want["table5"] || want["table6"] ||
		want["fig7"] || want["ablation"] || want["fig7sweep"]
	if !needEnv {
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
	fmt.Fprintf(os.Stderr, "stbench: preparing corpora (events=%d trajs=%d pois=%d) ...\n",
		scale.Events, scale.Trajs, scale.POIs)
	env, err := bench.NewEnv(ctx, workdir, scale)
	if err != nil {
		return err
	}

	if all || want["fig5"] {
		bench.Fig5Table(bench.Fig5(env, []float64{0.05, 0.1, 0.2, 0.4, 0.8}, windows)).Fprint(os.Stdout)
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
		bench.AblationTable(env).Fprint(os.Stdout)
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
