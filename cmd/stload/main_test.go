package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"st4ml/internal/storage"
)

// TestLoadSmoke drives stload end to end: generate and ingest with
// summaries and a trace, append one batch, re-append it (a no-op), and
// reject -append combined with -trace.
func TestLoadSmoke(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nyc")
	tracePath := filepath.Join(t.TempDir(), "ingest.json")

	var out bytes.Buffer
	if err := run([]string{"-dataset", "nyc", "-n", "2000", "-out", dir, "-gt", "2", "-gs", "2",
		"-summaries", "-trace", tracePath}, &out); err != nil {
		t.Fatal(err)
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.TotalCount != 2000 || meta.Version != 3 {
		t.Fatalf("ingested %d records as v%d, want 2000 as v3", meta.TotalCount, meta.Version)
	}
	for i := 0; i < meta.NumPartitions(); i++ {
		if _, ok := meta.SummaryFor(i); !ok {
			t.Errorf("partition %d has no summary sidecar after -summaries", i)
		}
	}
	for _, want := range []string{"stload: wrote 2000 records in 4 partitions", "stload: summarized 4 partitions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if b, err := os.ReadFile(tracePath); err != nil || !bytes.Contains(b, []byte(`"traceEvents"`)) {
		t.Fatalf("trace dump: %v, %.60q", err, b)
	}

	appendArgs := []string{"-dataset", "nyc", "-n", "100", "-seed", "5", "-out", dir, "-append", "-batch", "b1"}
	out.Reset()
	if err := run(appendArgs, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2100 records") {
		t.Fatalf("append output: %s", out.String())
	}
	first, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}

	// The same batch id again changes nothing.
	out.Reset()
	if err := run(appendArgs, &out); err != nil {
		t.Fatal(err)
	}
	again, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalCount != 2100 || again.Generation != first.Generation || again.DeltaCount() != first.DeltaCount() {
		t.Fatalf("repeated batch changed the dataset: %d records gen %d deltas %d, was gen %d deltas %d",
			again.TotalCount, again.Generation, again.DeltaCount(), first.Generation, first.DeltaCount())
	}

	var usage usageError
	err = run([]string{"-out", dir, "-append", "-trace", tracePath}, &out)
	if !errors.As(err, &usage) || !strings.Contains(err.Error(), "-trace cannot be combined with -append") {
		t.Fatalf("-append -trace: err = %v, want a usage error", err)
	}
	if err := run([]string{"-dataset", "nyc"}, &out); !errors.As(err, &usage) {
		t.Fatalf("missing -out: err = %v, want a usage error", err)
	}
}
