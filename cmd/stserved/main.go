// Command stserved is the ST feature-serving daemon: it pins dataset
// catalogs and partition indexes in memory, executes concurrent window
// queries on one shared engine, caches hot partitions and results under a
// byte budget, and sheds overload with 429/504 instead of queueing
// unboundedly (see package serve).
//
// Usage:
//
//	stload -dataset nyc -n 500000 -out /data/nyc
//	stserved -addr :8080 -dataset nyc=/data/nyc
//	curl -s localhost:8080/query -d '{"dataset":"nyc","minx":-74.0,"miny":40.7,"maxx":-73.9,"maxy":40.8,"tstart":1357000000,"tend":1360000000}'
//
// Each -dataset flag serves one dataset as name=dir (schema = name) or
// name:schema=dir. -demo generates and serves a synthetic NYC dataset, so
// the daemon can be tried with no preparation:
//
//	stserved -demo 100000
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
)

func main() {
	var datasets serve.DatasetFlags
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		demo         = flag.Int("demo", 0, "generate and serve a synthetic NYC dataset of this many events")
		slots        = flag.Int("slots", 0, "executor slots (0 = GOMAXPROCS)")
		cacheBytes   = flag.Int64("cache-bytes", 256<<20, "partition+result cache budget (negative disables)")
		inFlight     = flag.Int("max-inflight", 0, "concurrent query bound (0 = 2x slots)")
		maxQueue     = flag.Int("max-queue", 0, "admission queue depth (0 = 4x max-inflight)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "in-flight request budget after SIGTERM before connections close hard")
		shardName    = flag.String("shard-name", "", "shard identity stamped on cluster sub-query responses and stitched trace spans")
		subQueue     = flag.Int("subscribe-queue", 0, "per-subscriber bounded update queue before drop-oldest backpressure (0 = default)")
		subPoll      = flag.Duration("subscribe-poll", 0, "manifest poll cadence for delta commits made by other processes (0 = 250ms, negative disables)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this address (e.g. localhost:6060); empty disables")
	)
	flag.Var(&datasets, "dataset", "serve a dataset: name=dir or name:schema=dir (repeatable)")
	flag.Parse()

	srv, cleanup, err := build(engine.New(engine.Config{Slots: *slots}), datasets, *demo, serve.Config{
		CacheBytes:     *cacheBytes,
		MaxInFlight:    *inFlight,
		MaxQueue:       *maxQueue,
		Timeout:        *timeout,
		ShardName:      *shardName,
		SubscribeQueue: *subQueue,
		SubscribePoll:  *subPoll,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stserved:", err)
		os.Exit(2)
	}
	for _, info := range srv.Catalog().List() {
		fmt.Printf("stserved: serving %s (%s schema): %d records in %d partitions from %s\n",
			info.Name, info.Schema, info.Records, info.Partitions, info.Dir)
	}
	if *debugAddr != "" {
		go func() {
			fmt.Printf("stserved: pprof on %s/debug/pprof/\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux()); err != nil {
				fmt.Fprintln(os.Stderr, "stserved: debug server:", err)
			}
		}()
	}
	// Serve until SIGINT/SIGTERM, then drain: readiness flips to 503 first
	// (a cluster router stops routing here), in-flight queries get
	// -drain-timeout to finish, then remaining connections close.
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "stserved: "+format+"\n", args...)
	}
	fmt.Printf("stserved: listening on %s\n", *addr)
	err = serve.Graceful(serve.GracefulConfig{
		Addr:         *addr,
		Handler:      srv.Handler(),
		Drainer:      srv,
		DrainTimeout: *drainTimeout,
		Logf:         logf,
	})
	cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stserved:", err)
		os.Exit(1)
	}
}

// debugMux routes the net/http/pprof endpoints explicitly (the package's
// DefaultServeMux side-effect registration would expose them on the main
// query listener too, which the -debug-addr split exists to prevent).
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// build assembles the server from the flag values. With demo > 0 it
// ingests a synthetic NYC dataset into a temp directory and serves it as
// "demo". The returned cleanup removes that directory; call it once the
// server has drained. A failed build cleans up itself.
func build(ctx *engine.Context, datasets []string, demo int, cfg serve.Config) (*serve.Server, func(), error) {
	cfg.Ctx = ctx
	srv := serve.NewServer(cfg)
	cleanup := func() {}
	fail := func(err error) (*serve.Server, func(), error) {
		cleanup()
		return nil, nil, err
	}
	if demo > 0 {
		dir, err := os.MkdirTemp("", "stserved-demo-*")
		if err != nil {
			return fail(err)
		}
		cleanup = func() {
			if err := os.RemoveAll(dir); err != nil {
				fmt.Fprintln(os.Stderr, "stserved: removing the demo dataset:", err)
			}
		}
		if err := ingestDemo(ctx, demo, dir); err != nil {
			return fail(err)
		}
		if err := srv.AddDataset("demo", "nyc", dir); err != nil {
			return fail(err)
		}
	}
	for _, spec := range datasets {
		name, schema, dir, err := serve.ParseDatasetSpec(spec)
		if err != nil {
			return fail(err)
		}
		if err := srv.AddDataset(name, schema, dir); err != nil {
			return fail(err)
		}
	}
	if len(srv.Catalog().List()) == 0 {
		return fail(fmt.Errorf("nothing to serve: pass -dataset name=dir or -demo n"))
	}
	return srv, cleanup, nil
}

// ingestDemo writes a synthetic NYC event dataset of n events into dir.
func ingestDemo(ctx *engine.Context, n int, dir string) error {
	sch, _ := stdata.Lookup("nyc")
	fmt.Fprintf(os.Stderr, "stserved: ingesting %d demo events into %s ...\n", n, dir)
	_, err := sch.Ingest(ctx, datagen.NYC(n, 1), dir, sch.DefaultPlanner(8, 4),
		selection.IngestOptions{Name: "demo", SampleFrac: 0.05, Seed: 1})
	return err
}
