// Command stingest turns a growing CSV file into a continuously ingesting
// dataset: it tails the file, batches complete lines, appends each batch
// to the dataset through the storage delta layer (small immutable delta
// files committed by an atomic manifest swap — no base rewrite, readers
// never blocked), and runs the background compactor that folds deltas back
// into rewritten base partitions.
//
// Usage:
//
//	stload -dataset nyc -n 500000 -out /data/nyc        # base ingest
//	stingest -dataset nyc -dir /data/nyc -input feed.csv
//	stingest -dataset nyc -dir /data/nyc -input feed.csv -once
//	stingest -dataset nyc -dir /data/nyc -once          # compact only
//
// Exactly-once: every batch carries an id derived from its byte range in
// the input file, and the committed offset is persisted beside the dataset
// after each append. A crash at any point replays at most the last batch,
// which the manifest recognizes as already applied and drops. -once
// processes the file's current contents and exits (batch pipelines,
// tests); without it stingest polls for growth until interrupted. With
// -once and no -input it ingests nothing and runs one compaction pass.
//
// A dataset holding files in the legacy v1/v2 layouts is refused before
// anything is appended or compacted, with storage.ErrLegacyFormat: no
// reader takes those layouts, so such a dataset is re-ingested from its
// source records with stload.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

func main() {
	var (
		dataset   = flag.String("dataset", "nyc", "dataset schema: "+strings.Join(stdata.SchemaNames(), "|"))
		dir       = flag.String("dir", "", "dataset directory to append into (required; must hold an stload-built dataset)")
		input     = flag.String("input", "", "CSV file to tail (required unless -once)")
		batchRecs = flag.Int("batch-records", 10_000, "records per append batch")
		interval  = flag.Duration("interval", time.Second, "poll interval for file growth")
		once      = flag.Bool("once", false, "ingest the file's current contents, compact once, and exit")
		compactN  = flag.Int("compact-min-deltas", 4, "compact partitions carrying at least this many deltas (0 disables compaction)")
		compactIv = flag.Duration("compact-interval", 30*time.Second, "background compaction cadence")
		gcGrace   = flag.Duration("gc-grace", time.Minute, "age before superseded files are garbage-collected")
	)
	flag.Parse()
	if *dir == "" || (*input == "" && !*once) {
		fmt.Fprintln(os.Stderr, "stingest: -dir is required, and -input too without -once")
		os.Exit(2)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	err := run(config{
		Schema:          *dataset,
		Dir:             *dir,
		Input:           *input,
		BatchRecords:    *batchRecs,
		Interval:        *interval,
		Once:            *once,
		CompactDeltas:   *compactN,
		CompactInterval: *compactIv,
		GCGrace:         *gcGrace,
		Stop:            stop,
		Log:             os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stingest:", err)
		os.Exit(1)
	}
}

// config carries the resolved flags; run is separated from main so the
// smoke test can drive the full loop in-process.
type config struct {
	Schema          string
	Dir             string
	Input           string
	BatchRecords    int
	Interval        time.Duration
	Once            bool
	CompactDeltas   int
	CompactInterval time.Duration
	GCGrace         time.Duration
	Stop            <-chan os.Signal
	Log             io.Writer
}

// offsetFile is the sidecar (inside the dataset directory) recording how
// far into the input the last committed batch reached. It is written after
// the manifest swap, so a crash between the two replays exactly one batch
// — which the manifest's applied-batch record then drops.
const offsetFile = "ingest.offset"

type offsetState struct {
	Input  string `json:"input"`
	Offset int64  `json:"offset"`
}

func readOffset(dir, input string) (int64, error) {
	b, err := os.ReadFile(filepath.Join(dir, offsetFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var st offsetState
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, fmt.Errorf("parse %s: %w", offsetFile, err)
	}
	if st.Input != input {
		return 0, nil // different stream: start over, batch ids differ too
	}
	return st.Offset, nil
}

func writeOffset(dir, input string, off int64) error {
	b, err := json.Marshal(offsetState{Input: input, Offset: off})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, offsetFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, offsetFile))
}

func run(cfg config) error {
	sch, ok := stdata.Lookup(cfg.Schema)
	if !ok {
		return fmt.Errorf("unknown dataset schema %q", cfg.Schema)
	}
	meta, err := storage.ReadMetadata(cfg.Dir)
	if err == nil {
		err = meta.CheckFormat(cfg.Dir)
	}
	if err != nil {
		return fmt.Errorf("dataset at %s: %w", cfg.Dir, err)
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 10_000
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}

	if cfg.Input == "" {
		return compact(sch, cfg)
	}
	var stopCompact func()
	if cfg.CompactDeltas > 0 && !cfg.Once {
		stopCompact = startCompactor(sch, cfg)
		defer stopCompact()
	}

	off, err := readOffset(cfg.Dir, cfg.Input)
	if err != nil {
		return err
	}
	for {
		n, err := ingestAvailable(sch, cfg, &off)
		if err != nil {
			return err
		}
		if cfg.Once {
			break
		}
		if n > 0 {
			continue // drained a batch; look for more immediately
		}
		select {
		case <-cfg.Stop:
			return nil
		case <-time.After(cfg.Interval):
		}
	}
	if cfg.CompactDeltas > 0 {
		return compact(sch, cfg)
	}
	return nil
}

// compact runs one compaction pass — the background loop's, the -once
// tail, and with no -input the whole run — and logs what it rewrote (a
// background pass only when it rewrote something).
func compact(sch stdata.Schema, cfg config) error {
	st, err := sch.Compact(cfg.Dir, storage.CompactOptions{
		MinDeltas: cfg.CompactDeltas, GCGrace: cfg.GCGrace,
	})
	if err != nil {
		return err
	}
	if st.PartitionsCompacted > 0 || cfg.Once {
		fmt.Fprintf(cfg.Log, "stingest: compacted %d partitions (%d deltas, %d records)\n",
			st.PartitionsCompacted, st.DeltasMerged, st.RecordsRewritten)
	}
	return nil
}

// ingestAvailable appends everything currently readable past *off in
// batches, advancing the offset as batches commit. It returns how many
// records it appended.
func ingestAvailable(sch stdata.Schema, cfg config, off *int64) (int, error) {
	f, err := os.Open(cfg.Input)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(*off, io.SeekStart); err != nil {
		return 0, err
	}
	total := 0
	r := bufio.NewReader(f)
	var batch bytes.Buffer
	lines := 0
	batchStart := *off
	next := *off
	flush := func() error {
		if lines == 0 {
			return nil
		}
		recs, err := sch.ReadCSV(bytes.NewReader(batch.Bytes()))
		if err != nil {
			return fmt.Errorf("parse batch at offset %d: %w", batchStart, err)
		}
		// The byte range identifies the batch across restarts: a replay of
		// an already-committed range is recognized by the manifest and
		// dropped (exactly-once).
		id := fmt.Sprintf("%s:%d-%d", filepath.Base(cfg.Input), batchStart, next)
		gen, err := sch.Append(recs, cfg.Dir, id)
		if err != nil {
			var herr *storage.HookError
			if !errors.As(err, &herr) {
				return err
			}
			// A commit-hook failure comes back WITH committed state: the batch
			// is durable, only the post-commit notification (subscription push)
			// failed. Advance the offset before surfacing the error — replaying
			// the batch would dedup to a silent no-op and lose the notification
			// again — then exit non-zero so the operator sees it.
			if werr := writeOffset(cfg.Dir, cfg.Input, next); werr != nil {
				return fmt.Errorf("batch %s committed but commit hook failed (%v); recording offset also failed: %w", id, err, werr)
			}
			fmt.Fprintf(cfg.Log, "stingest: batch %s committed (generation %d) but commit hook failed: %v\n", id, gen, err)
			return fmt.Errorf("batch %s committed but commit hook failed: %w", id, err)
		}
		if err := writeOffset(cfg.Dir, cfg.Input, next); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Log, "stingest: appended %d records (bytes %d-%d, generation %d)\n",
			lines, batchStart, next, gen)
		total += lines
		*off = next
		batchStart = next
		batch.Reset()
		lines = 0
		return nil
	}
	for {
		line, err := r.ReadString('\n')
		if err == io.EOF {
			// An unterminated tail line is a partial write; leave it for the
			// next poll.
			break
		}
		if err != nil {
			return total, err
		}
		next += int64(len(line))
		batch.WriteString(line)
		lines++
		if lines >= cfg.BatchRecords {
			if err := flush(); err != nil {
				return total, err
			}
		}
	}
	return total, flush()
}

// startCompactor launches the periodic compaction loop and returns its
// stop function.
func startCompactor(sch stdata.Schema, cfg config) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(cfg.CompactInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := compact(sch, cfg); err != nil {
					fmt.Fprintf(cfg.Log, "stingest: compaction: %v\n", err)
				}
			}
		}
	}()
	return func() { close(stop); <-done }
}
