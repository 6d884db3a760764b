// Command stbenchmark is the repository's benchmark spine: five workloads
// over the serving, ingest and batch paths, the end-to-end metrics a user
// of the system sees, and a traced replay that assigns time to layers.
// BENCHMARK.md next to this file says why each workload and metric exists;
// BENCHMARK.json at the repository root is the contract the driver reads.
//
// Everything runs inside this one process: daemons are loopback listeners,
// there are no child processes, stores live in a temp dir under out/ that
// is removed on every exit path, and a watchdog ends a run that overstays.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Exit codes.
const (
	exitOK        = 0
	exitIncorrect = 1 // a reply failed verification, or -compare found a regression
	exitUsage     = 2
	exitDeadline  = 3   // the -deadline watchdog fired
	exitSignal    = 130 // SIGINT/SIGTERM
)

// hardExitGrace is how long a cancelled run gets to tear down normally
// before the watchdog removes the temp dir itself and exits.
const hardExitGrace = 10 * time.Second

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: serve_cold, serve_hot, routed, ingest_live, pipeline_batch, or all")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 12, "measure window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics instead of the end-to-end ones")
		deadline = flag.Duration("deadline", 0, "hard limit on the whole invocation (0 = twice the expected run)")
		dir      = flag.String("dir", "benchmark", "the benchmark's own directory (testdata/, out/)")
		compare  = flag.Bool("compare", false, "compare two runs.jsonl files given as arguments instead of running")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: stbenchmark -compare a.jsonl b.jsonl")
			os.Exit(exitUsage)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(exitUsage)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	cfg := config{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: fullScale, setups: 3, replayOps: 300,
		benchDir: *dir,
	}
	limit := *deadline
	if limit <= 0 {
		// Twice a generous estimate: three set-ups, warm-up, the window.
		limit = time.Duration(len(names)) * 2 * (time.Duration(1.5**seconds*float64(time.Second)) + 20*time.Second)
	}
	os.Exit(run(names, cfg, limit))
}

// run executes the named workloads under a deadline and signal handling
// and returns the exit code.
func run(names []string, cfg config, limit time.Duration) int {
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	ctx, cancel := context.WithTimeout(sigCtx, limit)
	defer cancel()

	// The watchdog: a cancelled run returns through its deferred teardown;
	// if it does not within the grace, remove the stores and leave. Process
	// exit closes the in-process listeners either way.
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-finished:
			return
		case <-ctx.Done():
		}
		select {
		case <-finished:
		case <-time.After(hardExitGrace):
			fmt.Fprintln(os.Stderr, "stbenchmark: run did not stop; removing temp dirs and exiting")
			removeTempDirs(cfg.outDir())
			os.Exit(exitDeadline)
		}
	}()

	code := exitOK
	for _, name := range names {
		res, err := runWorkload(ctx, name, cfg)
		if err != nil {
			switch {
			case sigCtx.Err() != nil:
				fmt.Fprintf(os.Stderr, "stbenchmark: %s: interrupted\n", name)
				code = exitSignal
			case errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil:
				fmt.Fprintf(os.Stderr, "stbenchmark: %s: deadline of %s exceeded\n", name, limit)
				code = exitDeadline
			default:
				fmt.Fprintf(os.Stderr, "stbenchmark: %s: %v\n", name, err)
				return exitIncorrect
			}
			if res != nil {
				fmt.Fprintln(os.Stderr, "partial results:")
				res.report(os.Stderr)
			}
			return code
		}
		res.report(os.Stdout)
		if err := res.save(cfg.outDir()); err != nil {
			fmt.Fprintf(os.Stderr, "stbenchmark: %s: %v\n", name, err)
			return exitIncorrect
		}
		// The contract's result object, the last line of a workload's output.
		fmt.Println(res.line())
		if !res.Correct {
			code = exitIncorrect
		}
	}
	return code
}

// tempPrefix starts the name of every store dir this process creates.
func tempPrefix() string { return fmt.Sprintf("tmp-%d-", os.Getpid()) }

// removeTempDirs deletes the store dirs this process left under out/ when
// it could not reach its own deferred cleanup.
func removeTempDirs(outDir string) {
	entries, err := os.ReadDir(outDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), tempPrefix()) {
			os.RemoveAll(filepath.Join(outDir, e.Name()))
		}
	}
}
