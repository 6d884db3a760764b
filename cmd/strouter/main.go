// Command strouter is the cluster query router: a stateless coordinator
// that fronts a fleet of stserved shards, scatters each window query over
// the shards whose partitions survive the metadata prune, hedges slow
// replicas, and merges the per-partition chunks back into a response that
// is byte-identical to a single daemon's (see package cluster).
//
// Usage:
//
//	stserved -addr :7071 -shard-name s0 -dataset nyc=/data/nyc &
//	stserved -addr :7072 -shard-name s1 -dataset nyc=/data/nyc &
//	strouter -addr :8080 -dataset nyc=/data/nyc \
//	    -shards 'http://localhost:7071;http://localhost:7072'
//	curl -s localhost:8080/query -d '{"dataset":"nyc", ...}'
//
// The topology comes from -shards (';' separates shards, ',' separates a
// shard's replicas) or from a -shard-map JSON file:
//
//	{"shards": [{"name": "s0", "replicas": ["http://a:7071", "http://b:7071"]}]}
//
// The router plans from the same dataset directories the shards serve
// (it reads only metadata, never partition data), so -dataset takes the
// same name=dir or name:schema=dir specs as stserved.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"st4ml/internal/cluster"
	"st4ml/internal/serve"
)

func main() {
	var datasets serve.DatasetFlags
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		shards         = flag.String("shards", "", "shard endpoints: ';' separates shards, ',' separates replicas")
		shardMap       = flag.String("shard-map", "", "shard map JSON file (alternative to -shards)")
		timeout        = flag.Duration("timeout", 30*time.Second, "per-query deadline")
		hedgeAfter     = flag.Duration("hedge-after", 0, "hedge a sub-query on another replica after this silence (0 disables)")
		drainTimeout   = flag.Duration("drain-timeout", 10*time.Second, "in-flight request budget after SIGTERM before connections close hard")
		healthInterval = flag.Duration("health-interval", 5*time.Second, "replica readiness probe interval")
	)
	flag.Var(&datasets, "dataset", "plan over a dataset: name=dir or name:schema=dir (repeatable)")
	flag.Parse()

	m, err := loadTopology(*shards, *shardMap)
	if err != nil {
		fmt.Fprintln(os.Stderr, "strouter:", err)
		os.Exit(2)
	}
	r, err := build(datasets, cluster.Config{
		Shards:     m,
		Timeout:    *timeout,
		HedgeAfter: *hedgeAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "strouter:", err)
		os.Exit(2)
	}
	for _, info := range r.Catalog().List() {
		fmt.Printf("strouter: routing %s (%s schema): %d records in %d partitions\n",
			info.Name, info.Schema, info.Records, info.Partitions)
	}
	for _, sh := range m.Shards {
		fmt.Printf("strouter: shard %s: %s\n", sh.Name, strings.Join(sh.Replicas, ", "))
	}
	stop := r.StartHealth(*healthInterval)
	defer stop()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "strouter: "+format+"\n", args...)
	}
	fmt.Printf("strouter: listening on %s (%d shards)\n", *addr, len(m.Shards))
	if err := serve.Graceful(serve.GracefulConfig{
		Addr:         *addr,
		Handler:      r.Handler(),
		Drainer:      r,
		DrainTimeout: *drainTimeout,
		Logf:         logf,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "strouter:", err)
		os.Exit(1)
	}
}

// loadTopology resolves the shard map from whichever flag was given.
func loadTopology(shards, shardMapPath string) (cluster.ShardMap, error) {
	switch {
	case shards != "" && shardMapPath != "":
		return cluster.ShardMap{}, fmt.Errorf("pass -shards or -shard-map, not both")
	case shards != "":
		return cluster.ParseShards(shards)
	case shardMapPath != "":
		return cluster.LoadShardMap(shardMapPath)
	default:
		return cluster.ShardMap{}, fmt.Errorf("a topology is required: -shards 'url;url' or -shard-map file.json")
	}
}

// build assembles the router from the flag values.
func build(datasets []string, cfg cluster.Config) (*cluster.Router, error) {
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		return nil, err
	}
	for _, spec := range datasets {
		name, schema, dir, err := serve.ParseDatasetSpec(spec)
		if err != nil {
			return nil, err
		}
		if err := r.AddDataset(name, schema, dir); err != nil {
			return nil, err
		}
	}
	if len(r.Catalog().List()) == 0 {
		return nil, fmt.Errorf("nothing to route: pass -dataset name=dir")
	}
	return r, nil
}
