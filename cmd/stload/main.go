// Command stload performs the offline preparation step of §4.1: it reads
// (or generates) a dataset, T-STR-partitions it, and persists the
// partitioned store with its metadata index, ready for metadata-pruned
// selection.
//
// Usage:
//
//	stload -dataset nyc -n 500000 -out /data/nyc -gt 16 -gs 8
//	stload -dataset porto -n 50000 -out /data/porto -block-records 256
//	stload -dataset nyc -input events.csv -out /data/mine
//	stload -dataset nyc -input more.csv -out /data/mine -append
//
// Partitions are written in the current storage format (v3): blocks laid
// out as delta-compressed column streams.
//
// -input ingests external CSV data in the standard schemas (see package
// stdata): events as `id,lon,lat,time[,aux]`, trajectories as
// `id,"lon lat ...","t t ..."`.
//
// -append routes the records into an existing dataset through the storage
// delta layer instead of rebuilding it: small immutable delta files beside
// the base partitions, committed by an atomic manifest swap, merged on
// read and folded back in by compaction (see cmd/stingest for the
// continuous form). It cannot be combined with -trace: an append runs
// outside the engine, so there would be no spans to dump.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	var usage usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		if usage != "" {
			fmt.Fprintln(os.Stderr, "stload:", usage)
		}
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "stload:", err)
		os.Exit(1)
	}
}

// usageError is a command line stload rejects before doing any work; it
// exits 2, like a flag the parser refused (whose usageError is empty: the
// parser already said what was wrong).
type usageError string

func (e usageError) Error() string { return string(e) }

// run parses args and performs one ingest or append, reporting to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "nyc", "dataset schema: "+strings.Join(stdata.SchemaNames(), "|"))
		n         = fs.Int("n", 100_000, "record count when generating (events/trajectories/POIs)")
		input     = fs.String("input", "", "CSV file to ingest instead of generating (nyc/porto schemas)")
		out       = fs.String("out", "", "output dataset directory (required)")
		gt        = fs.Int("gt", 16, "T-STR temporal granularity")
		gs        = fs.Int("gs", 8, "T-STR spatial granularity")
		seed      = fs.Int64("seed", 1, "generator seed")
		blockRecs = fs.Int("block-records", 0, "records per storage block (0 = format default; smaller blocks prune harder on narrow queries)")
		noCluster = fs.Bool("no-cluster", false, "skip the in-partition Z-order sort (blocks keep arrival order; pruning degrades)")
		slots     = fs.Int("slots", 0, "executor slots (0 = GOMAXPROCS)")
		traceFile = fs.String("trace", "", "write a Chrome trace-event dump of the ingest to this file")
		appendTo  = fs.Bool("append", false, "append to the existing dataset at -out via the delta layer instead of rebuilding it")
		batchID   = fs.String("batch", "", "idempotency id for -append: re-running with the same id is a no-op")
		summaries = fs.Bool("summaries", false, "build approximate-query summary sidecars after writing (compaction keeps them current afterwards)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError("")
	}
	if *out == "" {
		return usageError("-out is required")
	}
	sch, ok := stdata.Lookup(*dataset)
	if !ok {
		return usageError(fmt.Sprintf("unknown dataset %q", *dataset))
	}
	if *appendTo && *traceFile != "" {
		return usageError("-trace cannot be combined with -append (an append runs outside the engine)")
	}
	var tr *trace.Tracer
	if *traceFile != "" {
		tr = trace.New()
	}
	ctx := engine.New(engine.Config{Slots: *slots, Tracer: tr})
	opts := selection.IngestOptions{
		Name: *dataset, SampleFrac: 0.02, Seed: *seed,
		BlockRecords: *blockRecs, NoCluster: *noCluster,
	}
	var (
		recs any
		err  error
	)
	if *input != "" {
		recs, err = readCSV(sch, *input)
	} else {
		recs = generate(*dataset, *n, *seed)
	}
	if err != nil {
		return err
	}
	if *appendTo {
		gen, err := sch.Append(recs, *out, *batchID)
		if err != nil {
			return err
		}
		meta, err := storage.ReadMetadata(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "stload: appended to %s (generation %d, %d records, %d live deltas)\n",
			*out, gen, meta.TotalCount, meta.DeltaCount())
		if *summaries {
			return buildSummaries(stdout, sch, *out)
		}
		return nil
	}
	meta, err := sch.Ingest(ctx, recs, *out, sch.DefaultPlanner(*gt, *gs), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stload: wrote %d records in %d partitions to %s (v%d, %d records/block)\n",
		meta.TotalCount, meta.NumPartitions(), *out, meta.Version, meta.BlockRecords)
	if *summaries {
		if err := buildSummaries(stdout, sch, *out); err != nil {
			return err
		}
	}
	if *traceFile != "" {
		return writeTrace(*traceFile, tr)
	}
	return nil
}

// buildSummaries backfills summary sidecars for the dataset and reports
// how many partitions were summarized.
func buildSummaries(stdout io.Writer, sch stdata.Schema, dir string) error {
	n, err := sch.BuildSummaries(dir, summary.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stload: summarized %d partitions (approximate queries answer from sidecars)\n", n)
	return nil
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

// generate produces n synthetic records of the named schema. Generator
// signatures differ per corpus, so this stays a switch; everything
// downstream goes through the stdata registry.
func generate(dataset string, n int, seed int64) any {
	switch dataset {
	case "nyc":
		return datagen.NYC(n, seed)
	case "porto":
		return datagen.Porto(n, seed)
	case "air":
		return datagen.Air(n, 4, 7, 1800, seed)
	case "osm":
		pois, _ := datagen.OSM(n, 1, seed)
		return pois
	}
	return nil
}

// readCSV opens path and parses it with the schema's CSV reader.
func readCSV(sch stdata.Schema, path string) (any, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sch.ReadCSV(f)
}
