// Package cluster is the multi-node serving tier: a stateless router that
// scatters window queries over a fleet of stserved shard processes and
// gathers their per-partition chunks back into one answer that is
// byte-identical to what a single daemon would have served.
//
// The design splits the serving problem the way the paper splits selection:
//
//   - Planning stays central. The router reads the same metadata.json (and
//     delta manifest) a single node would, prunes partitions against the
//     query window via the §4.1 bounds index, and rendezvous-hashes the
//     surviving partition ids over the shard names — so a spatially
//     selective query touches only the shards that own matching partitions
//     (the explain report calls this the scatter width).
//
//   - Execution is scattered. Each touched shard gets one POST /subquery
//     carrying its partition subset and a generation fence; replicas of a
//     shard are interchangeable, so the RPC runs under engine.Hedge — the
//     engine's task-attempt rules (failover on error, hedged duplicates on
//     silence, exactly-once commit) generalized across the process
//     boundary.
//
//   - Gathering is exactly-once. Shards answer per-partition chunks keyed
//     by partition id; the merge drops duplicate ids (a chunk that raced in
//     from a losing hedge) and flattens the rest in ascending partition
//     order, cut at the query limit — stdata.Flatten, the same function a
//     single node builds its records with, which is what makes the merged
//     bytes identical. Approx queries gather shard partial envelopes
//     instead and merge them; that gather is the only step the two kinds
//     do not share (one replan loop, one scatter).
//
//   - Consistency is fenced, not locked. Every sub-query carries the
//     dataset generation the router planned at; a shard whose view moved (a
//     compaction or append committed mid-scatter) answers 409 and the
//     router replans from fresh metadata, so one merged response can never
//     mix generations.
//
// A sub-query's reply crosses the hop as one CRC-framed binary frame
// (serve.ParseSubQueryFrame): the records arrive as the bytes the shard's
// encoder wrote behind a table of their lengths, and the router cuts them
// out of the body without scanning them. A damaged frame, or the JSON
// reply of a shard older than the router, is a failed attempt that fails
// over to the next replica.
//
// Shard trace spans ship back inside sub-query responses and are grafted
// under the router's RPC spans, so `stquery -explain` against the router
// renders one stitched router→shard→partition:read tree.
package cluster

import (
	"net/http"
	"sync/atomic"
	"time"

	"st4ml/internal/serve"
)

// Config tunes a Router. Zero values pick serving defaults.
type Config struct {
	// Catalog holds the datasets the router plans from (same directories
	// the shards serve; the router reads only metadata, never partitions).
	Catalog *serve.Catalog
	// Shards is the cluster topology. Must validate.
	Shards ShardMap
	// Timeout bounds one routed query end to end. 0 means 30s.
	Timeout time.Duration
	// HedgeAfter launches a duplicate attempt on another replica when a
	// sub-query has not answered within this duration. 0 disables hedging
	// (replicas then serve only as failover targets).
	HedgeAfter time.Duration
	// Client issues the shard RPCs. Nil builds a default that keeps up to
	// shardIdleConns idle connections per shard replica.
	Client *http.Client
}

// shardIdleConns is the default client's idle connections per shard
// replica. net/http's default keeps 2, so a router serving more than two
// concurrent queries per shard would dial a fresh connection for each one
// past the second and close it again after.
const shardIdleConns = 64

// maxReplans bounds the planning rounds of one query: a generation that
// moves under this many consecutive scatters answers 409.
const maxReplans = 3

// Router is the scatter-gather coordinator. It is stateless apart from
// counters: all routing state derives from the shard map and the dataset
// metadata, so any number of routers can front the same fleet. Answers are
// cached only where the data lives, in each shard's sub-query cache.
type Router struct {
	catalog    *serve.Catalog
	shards     ShardMap
	replicas   [][]*replica // replicas[shard][i] tracks Shards[shard].Replicas[i]
	client     *http.Client
	timeout    time.Duration
	hedgeAfter time.Duration
	started    time.Time

	serve.Front
	rpcs         atomic.Int64
	hedges       atomic.Int64
	failovers    atomic.Int64
	replans      atomic.Int64
	genConflicts atomic.Int64
	dedupDrops   atomic.Int64
	timeouts     atomic.Int64
	scatterWidth atomic.Int64

	// testHookAfterPlan, when set, runs after the scatter set is computed
	// and before any sub-query is sent — the window in which tests race a
	// compaction against the scatter to exercise the generation fence.
	testHookAfterPlan func()
}

// NewRouter builds a Router from cfg.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.Shards.Validate(); err != nil {
		return nil, err
	}
	catalog := cfg.Catalog
	if catalog == nil {
		catalog = serve.NewCatalog()
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = shardIdleConns
		client = &http.Client{Transport: tr}
	}
	r := &Router{
		catalog:    catalog,
		shards:     cfg.Shards,
		client:     client,
		timeout:    timeout,
		hedgeAfter: cfg.HedgeAfter,
		started:    time.Now(),
	}
	r.replicas = make([][]*replica, len(cfg.Shards.Shards))
	for i, sh := range cfg.Shards.Shards {
		r.replicas[i] = make([]*replica, len(sh.Replicas))
		for j, url := range sh.Replicas {
			rep := &replica{url: url}
			rep.ready.Store(true) // optimistic until a probe or RPC says otherwise
			r.replicas[i][j] = rep
		}
	}
	return r, nil
}

// Catalog exposes the router's dataset catalog.
func (r *Router) Catalog() *serve.Catalog { return r.catalog }

// AddDataset registers the dataset at dir under name for planning.
func (r *Router) AddDataset(name, schemaName, dir string) error {
	_, err := r.catalog.Register(name, schemaName, dir)
	return err
}

// RouterStats is the /metrics wire form of the router counters.
type RouterStats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`
	Shards        int     `json:"shards"`
	Queries       int64   `json:"queries"`
	QueryErrors   int64   `json:"query_errors"`
	RPCs          int64   `json:"rpcs"`
	Hedges        int64   `json:"hedges"`
	Failovers     int64   `json:"failovers"`
	Replans       int64   `json:"replans"`
	GenConflicts  int64   `json:"generation_conflicts"`
	DedupDrops    int64   `json:"dedup_drops"`
	Timeouts      int64   `json:"timeouts"`
	// ScatterWidth is the cumulative shard count touched across routed
	// queries; divided by Queries it is the mean fan-out.
	ScatterWidth int64 `json:"scatter_width"`
}

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() RouterStats {
	queries, queryErrors := r.Counts()
	return RouterStats{
		UptimeSeconds: time.Since(r.started).Seconds(),
		Draining:      r.Draining(),
		Shards:        len(r.shards.Shards),
		Queries:       queries,
		QueryErrors:   queryErrors,
		RPCs:          r.rpcs.Load(),
		Hedges:        r.hedges.Load(),
		Failovers:     r.failovers.Load(),
		Replans:       r.replans.Load(),
		GenConflicts:  r.genConflicts.Load(),
		DedupDrops:    r.dedupDrops.Load(),
		Timeouts:      r.timeouts.Load(),
		ScatterWidth:  r.scatterWidth.Load(),
	}
}
