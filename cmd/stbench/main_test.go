package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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
	// Redirect stdout noise away from test output? The driver prints to
	// stdout; that is fine under go test.
	var jsonBuf bytes.Buffer
	err := run("all", engine.Config{Slots: 2}, bench.Scale{
		Events: 5_000, Trajs: 500, POIs: 2_000, Areas: 36, AirSta: 3,
	}, 2, 4, dir, &jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	// -json captured machine-readable rows for the perf-trajectory file.
	for _, exp := range []string{`"exp":"fig5"`, `"exp":"blocks"`, `"exp":"serve"`} {
		if !strings.Contains(jsonBuf.String(), exp) {
			t.Errorf("json output missing %s rows", exp)
		}
	}
	// Work dir persisted stores.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Errorf("no stores created: %v", err)
	}
}

func TestRunSingleExperiments(t *testing.T) {
	if err := run("table8", engine.Config{Slots: 2}, bench.Scale{}, 1, 2, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if err := run("table9", engine.Config{Slots: 2}, bench.Scale{}, 1, 2, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	if err := run("serve", engine.Config{Slots: 2}, bench.Scale{Events: 4_000}, 2, 3, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunRowsWithAndWithoutJSON drives a multi-row experiment through the
// sink main builds from -json: absent, every row must still print (the
// sink is a nil interface, not a nil file that fails the first write);
// present, every row lands in the file.
func TestRunRowsWithAndWithoutJSON(t *testing.T) {
	scale := bench.Scale{Events: 4_000}
	out, closeJSON, err := openJSON("")
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatalf("no -json built a non-nil sink %#v", out)
	}
	if err := run("approx", engine.Config{Slots: 2}, scale, 1, 2, t.TempDir(), out); err != nil {
		t.Fatalf("without -json: %v", err)
	}
	if err := closeJSON(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "rows.jsonl")
	out, closeJSON, err = openJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := run("approx", engine.Config{Slots: 2}, scale, 1, 2, t.TempDir(), out); err != nil {
		t.Fatalf("with -json: %v", err)
	}
	if err := closeJSON(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(b), `"exp":"approx"`); rows < 2 {
		t.Fatalf("-json file holds %d approx rows, want every row", rows)
	}
}

// TestRunUnderChaosPlan mirrors the -chaos flag: an experiment driven under
// a transient fault plan must still complete.
func TestRunUnderChaosPlan(t *testing.T) {
	cfg := engine.Config{
		Slots: 2, Speculation: true,
		Faults: &engine.FaultPlan{Seed: 1, FailRate: 0.1, CorruptRate: 0.1},
	}
	if err := run("table9", cfg, bench.Scale{}, 1, 2, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperimentIsNoop(t *testing.T) {
	if err := run("nonsense", engine.Config{Slots: 2}, bench.Scale{}, 1, 2, t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
}
