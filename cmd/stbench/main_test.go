package main

import (
	"os"
	"testing"

	"st4ml/internal/bench"
	"st4ml/internal/engine"
)

// TestRunAllTiny smoke-tests the whole driver at a tiny scale — every
// experiment must produce output without error.
func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	// The driver prints to stdout; that is fine under go test.
	err := run("all", engine.Config{Slots: 2}, bench.Scale{
		Events: 5_000, Trajs: 500, POIs: 2_000, Areas: 36, AirSta: 3,
	}, 2, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Work dir persisted stores.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Errorf("no stores created: %v", err)
	}
}

// TestRunSingleExperiments drives one mode of each kind: no environment
// (table8), the case-study city (table9), and the corpus environment
// (fig5).
func TestRunSingleExperiments(t *testing.T) {
	if err := run("table8", engine.Config{Slots: 2}, bench.Scale{}, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := run("table9", engine.Config{Slots: 2}, bench.Scale{}, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	tiny := bench.Scale{Events: 4_000, Trajs: 400, POIs: 1_000, Areas: 16, AirSta: 2}
	if err := run("fig5", engine.Config{Slots: 2}, tiny, 2, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnderChaosPlan mirrors the -chaos flag: an experiment driven under
// a transient fault plan must still complete.
func TestRunUnderChaosPlan(t *testing.T) {
	cfg := engine.Config{
		Slots: 2, Speculation: true,
		Faults: &engine.FaultPlan{Seed: 1, FailRate: 0.1, CorruptRate: 0.1},
	}
	if err := run("table9", cfg, bench.Scale{}, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperimentIsNoop(t *testing.T) {
	if err := run("nonsense", engine.Config{Slots: 2}, bench.Scale{}, 1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}
