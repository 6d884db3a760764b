package trace

import (
	"fmt"
	"io"
)

// Span names and attribute keys shared by the instrumented layers. Explain
// aggregation keys off these, so they are constants rather than ad-hoc
// strings at each call site.
const (
	// SpanStage is one engine stage; prefix + stage name.
	SpanStagePrefix = "stage:"
	// SpanTask is one task attempt within a stage.
	SpanTask = "task"
	// SpanShuffleWrite / SpanShuffleRead are the two sides of one shuffle.
	SpanShuffleWrite = "shuffle:write"
	SpanShuffleRead  = "shuffle:read"
	// SpanSelect is one selection (prune + load + filter) over a dataset.
	SpanSelect = "select"
	// SpanPartitionRead is one storage partition decoded from disk.
	SpanPartitionRead = "partition:read"
	// SpanPartitionFetch is one partition consulted through the serving
	// cache; SpanPartitionLoad is the subset whose base file missed and hit
	// the disk.
	SpanPartitionFetch = "partition:fetch"
	SpanPartitionLoad  = "partition:load"
	// SpanResultLookup is the serving tier's result-cache probe.
	SpanResultLookup = "result:lookup"
	// SpanAdmission is the serving tier's admission wait.
	SpanAdmission = "admission:wait"
	// SpanRTreeBuild is one R-tree bulk load (selection filter index,
	// pinned partition index, or conversion structure index).
	SpanRTreeBuild = "rtree:build"
	// SpanDeltaRead marks a partition read that unioned delta files into
	// the base (merge-on-read): attrs carry how many delta files were read
	// versus pruned by manifest bounds and the records they contributed.
	// The serving cache reads delta files apart from the base, so its
	// delta:read spans also carry the block attrs of those files.
	SpanDeltaRead = "delta:read"
	// SpanCompact is one partition rewrite by the background compactor.
	SpanCompact = "compact:partition"
	// SpanScatter is a cluster router's planning+fan-out phase: attrs carry
	// the partition-prune outcome (the router plans from the same metadata
	// a single node would) plus the scatter width in shards.
	SpanScatter = "scatter"
	// SpanRPC is one shard sub-query RPC issued by the router, hedged
	// replica attempts included; the shard's own span dump is grafted
	// under it, stitching the cross-process tree.
	SpanRPC = "rpc:shard"
	// SpanSubquery is the shard-side root of one /subquery execution.
	SpanSubquery = "subquery"
	// SpanSubscribeMatch is one committed delta batch routed through the
	// subscription window index; its subscribe:push children are the
	// matched updates enqueued to (or dropped by) subscriber queues.
	SpanSubscribeMatch = "subscribe:match"
	SpanSubscribePush  = "subscribe:push"
	// SpanApprox is one approximate (summary-tier) aggregate evaluation;
	// attrs carry the aggregate plus the summary/scan totals. Its
	// approx:partition children record per-partition provenance — whether
	// each partition was answered from its sidecar, a mix of sidecar and
	// exact scans, or a transparent exact fallback.
	SpanApprox     = "approx"
	SpanApproxPart = "approx:partition"
	// SpanPointPatHalo is one partition halo exchange of a point-pattern
	// statistic: attrs carry the rim points duplicated to neighbor
	// partitions and their encoded byte volume. SpanPointPatPairs is the
	// neighborhood pair-counting stage that follows: attrs carry candidate
	// pairs tested and (pair, grid-cell) matches recorded.
	SpanPointPatHalo  = "pointpat:halo"
	SpanPointPatPairs = "pointpat:paircount"
)

// StageExplain is the per-stage line of an explain report.
type StageExplain struct {
	Name        string  `json:"name"`
	Tasks       int64   `json:"tasks"`
	Records     int64   `json:"records"`
	Retries     int64   `json:"retries"`
	Speculative int64   `json:"speculative"`
	WallMS      float64 `json:"wall_ms"`
}

// Explain is the aggregated execution report of one traced query: where the
// partitions, records, bytes, and task attempts went. It is derived purely
// from a span dump (Build), so anything that produces spans — stquery, the
// serving daemon, an ingest — explains the same way.
type Explain struct {
	TotalPartitions  int64 `json:"total_partitions"`
	ReadPartitions   int64 `json:"read_partitions"`
	PrunedPartitions int64 `json:"pruned_partitions"`
	PartitionBytes   int64 `json:"partition_bytes"`
	RecordsLoaded    int64 `json:"records_loaded"`
	RecordsSelected  int64 `json:"records_selected"`

	// Block-granularity read accounting: within the partitions that were
	// read, how many blocks were decoded versus skipped via footer bounds,
	// and the payload volume decoded (the JSON name predates the columnar
	// layout, which has no compression). Aggregated from partition:read
	// (selection) and partition:load (serving cache miss) spans.
	BlocksScanned     int64 `json:"blocks_scanned"`
	BlocksPruned      int64 `json:"blocks_pruned"`
	BytesDecompressed int64 `json:"bytes_decompressed"`
	// RecordsPruned counts records the columnar predicate dropped on
	// decoded lon/lat/t columns before materialization; zero on generic
	// row-payload files.
	RecordsPruned int64 `json:"records_pruned"`

	// Delta-layer accounting: delta files unioned into partition reads
	// (merge-on-read), delta files skipped via manifest bounds, the records
	// they contributed, and compactor partition rewrites that ran under
	// this trace. All zero on datasets without a delta layer.
	DeltaFilesRead   int64 `json:"delta_files_read"`
	DeltaFilesPruned int64 `json:"delta_files_pruned"`
	DeltaRecords     int64 `json:"delta_records"`
	Compactions      int64 `json:"compactions"`

	// Standing-query accounting: delta batches matched against the
	// subscription window index under this trace, updates pushed to
	// subscriber queues, and the records those updates carried. All zero
	// outside the online push path.
	SubscribeMatches int64 `json:"subscribe_matches"`
	SubscribePushes  int64 `json:"subscribe_pushes"`
	SubscribeRecords int64 `json:"subscribe_records"`

	ShuffleRecords int64 `json:"shuffle_records"`
	ShuffleBytes   int64 `json:"shuffle_bytes"`

	TasksRun    int64 `json:"tasks_run"`
	TaskRetries int64 `json:"task_retries"`
	Speculative int64 `json:"speculative_attempts"`
	RTreeBuilds int64 `json:"rtree_builds"`

	// Serving-tier dispositions; empty/zero outside the daemon.
	ResultCache     string  `json:"result_cache,omitempty"`
	PartitionHits   int64   `json:"partition_cache_hits"`
	PartitionLoads  int64   `json:"partition_cache_loads"`
	AdmissionWaitMS float64 `json:"admission_wait_ms"`

	// Approx is the approximate-tier report: totals plus per-partition
	// estimated-vs-exact provenance; nil outside an approx=true query. On a
	// routed query the shard spans are grafted into the same dump, so the
	// totals aggregate what every shard consumed and the parts concatenate
	// across shards.
	Approx *ApproxExplain `json:"approx,omitempty"`

	// PointPat is the point-pattern analytics report: halo-exchange and
	// pair-counting totals; nil outside a pointpat evaluation.
	PointPat *PointPatExplain `json:"pointpat,omitempty"`

	// Scatter is the cluster router's fan-out report; nil outside a routed
	// query. The shard spans it summarizes are grafted into the same dump,
	// so the block/partition/record counters above already include the
	// work the shards did.
	Scatter *ScatterExplain `json:"scatter,omitempty"`

	Stages []StageExplain `json:"stages"`
	WallMS float64        `json:"wall_ms"`
	Spans  int            `json:"spans"`
}

// ApproxExplain is the approximate-tier section of an explain report.
type ApproxExplain struct {
	Agg string `json:"agg,omitempty"`
	// SummaryBlocks counts block summaries consumed; ScannedBlocks and
	// ScannedRecords count the exact reads done alongside (boundary
	// blocks, delta files, fallback scans).
	SummaryBlocks  int64 `json:"summary_blocks"`
	ScannedBlocks  int64 `json:"scanned_blocks"`
	ScannedRecords int64 `json:"scanned_records"`
	// Fallback marks at least one partition answered by a transparent
	// exact scan because it had no usable sidecar.
	Fallback bool `json:"fallback,omitempty"`
	// Parts is the per-partition provenance, one line per partition walked.
	Parts []ApproxPartExplain `json:"parts,omitempty"`
}

// ApproxPartExplain is one partition's estimated-vs-exact provenance line.
type ApproxPartExplain struct {
	ID             int64  `json:"id"`
	Source         string `json:"source"`
	SummaryBlocks  int64  `json:"summary_blocks"`
	ScannedBlocks  int64  `json:"scanned_blocks"`
	ScannedRecords int64  `json:"scanned_records"`
}

// PointPatExplain is the point-pattern section of an explain report: what
// the boundary-correcting halo exchange shipped and what the neighborhood
// counters did with it.
type PointPatExplain struct {
	// Stat names the statistic ("k" or "getis").
	Stat string `json:"stat,omitempty"`
	// HaloPoints and HaloBytes count rim points duplicated to neighbor
	// partitions and their encoded volume across the exchange.
	HaloPoints int64 `json:"halo_points"`
	HaloBytes  int64 `json:"halo_bytes"`
	// PairsTested counts candidate pairs whose distance predicate ran;
	// PairsCounted counts the (pair, grid-cell) matches recorded.
	PairsTested  int64 `json:"pairs_tested"`
	PairsCounted int64 `json:"pairs_counted"`
}

// ScatterExplain summarizes a routed query's fan-out: how many shards the
// scatter set touched (of how many in the map), hedged and failed-over
// replica attempts, generation-conflict replans, and one line per shard
// RPC.
type ScatterExplain struct {
	Shards    int64        `json:"shards"`
	Width     int64        `json:"width"`
	Hedges    int64        `json:"hedges"`
	Failovers int64        `json:"failovers"`
	Replans   int64        `json:"replans"`
	RPCs      []RPCExplain `json:"rpcs,omitempty"`
}

// RPCExplain is one shard sub-query line of a routed explain.
type RPCExplain struct {
	Shard      string  `json:"shard"`
	Replica    string  `json:"replica,omitempty"`
	Partitions int64   `json:"partitions"`
	Attempts   int64   `json:"attempts"`
	Selected   int64   `json:"selected"`
	WallMS     float64 `json:"wall_ms"`
}

// Build aggregates a span dump into an explain report. It tolerates partial
// dumps (missing span kinds simply leave their fields zero).
func Build(spans []SpanRecord) *Explain {
	if spans == nil {
		return nil
	}
	e := &Explain{Spans: len(spans)}
	// Stage spans indexed by ID so task children can attribute retries.
	stageOf := map[SpanID]int{}
	var fetches int64
	for _, s := range spans {
		switch {
		case len(s.Name) > len(SpanStagePrefix) && s.Name[:len(SpanStagePrefix)] == SpanStagePrefix:
			st := StageExplain{
				Name:   s.Name[len(SpanStagePrefix):],
				WallMS: float64(s.Duration.Microseconds()) / 1000,
			}
			st.Tasks, _ = s.Int("tasks")
			st.Records, _ = s.Int("records")
			stageOf[s.ID] = len(e.Stages)
			e.Stages = append(e.Stages, st)
		case s.Name == SpanSelect:
			total, _ := s.Int("total_partitions")
			kept, _ := s.Int("kept_partitions")
			e.TotalPartitions += total
			e.ReadPartitions += kept
			e.PrunedPartitions += total - kept
			if v, ok := s.Int("loaded_records"); ok {
				e.RecordsLoaded += v
			}
			if v, ok := s.Int("loaded_bytes"); ok {
				e.PartitionBytes += v
			}
			if v, ok := s.Int("selected"); ok {
				e.RecordsSelected += v
			}
		case s.Name == SpanShuffleWrite:
			if v, ok := s.Int("bytes"); ok {
				e.ShuffleBytes += v
			}
			if v, ok := s.Int("records"); ok {
				e.ShuffleRecords += v
			}
		case s.Name == SpanPartitionRead:
			e.addBlockAttrs(s)
		case s.Name == SpanPartitionFetch:
			fetches++
		case s.Name == SpanPartitionLoad:
			e.PartitionLoads++
			e.addBlockAttrs(s)
		case s.Name == SpanResultLookup:
			if s.BoolAttr("hit") {
				e.ResultCache = "hit"
			} else {
				e.ResultCache = "miss"
			}
		case s.Name == SpanAdmission:
			e.AdmissionWaitMS += float64(s.Duration.Microseconds()) / 1000
		case s.Name == SpanRTreeBuild:
			e.RTreeBuilds++
		case s.Name == SpanDeltaRead:
			e.addBlockAttrs(s)
			if v, ok := s.Int("files"); ok {
				e.DeltaFilesRead += v
			}
			if v, ok := s.Int("pruned"); ok {
				e.DeltaFilesPruned += v
			}
			if v, ok := s.Int("records"); ok {
				e.DeltaRecords += v
			}
		case s.Name == SpanCompact:
			e.Compactions++
		case s.Name == SpanSubscribeMatch:
			e.SubscribeMatches++
		case s.Name == SpanSubscribePush:
			e.SubscribePushes++
			if v, ok := s.Int("records"); ok {
				e.SubscribeRecords += v
			}
		case s.Name == SpanApprox:
			if e.Approx == nil {
				e.Approx = &ApproxExplain{}
			}
			if v, ok := s.Str("agg"); ok {
				e.Approx.Agg = v
			}
			if v, ok := s.Int("summary_blocks"); ok {
				e.Approx.SummaryBlocks += v
			}
			if v, ok := s.Int("scanned_blocks"); ok {
				e.Approx.ScannedBlocks += v
			}
			if v, ok := s.Int("scanned_records"); ok {
				e.Approx.ScannedRecords += v
			}
			if s.BoolAttr("fallback") {
				e.Approx.Fallback = true
			}
		case s.Name == SpanApproxPart:
			if e.Approx == nil {
				e.Approx = &ApproxExplain{}
			}
			p := ApproxPartExplain{}
			p.ID, _ = s.Int("partition")
			p.Source, _ = s.Str("source")
			p.SummaryBlocks, _ = s.Int("summary_blocks")
			p.ScannedBlocks, _ = s.Int("scanned_blocks")
			p.ScannedRecords, _ = s.Int("scanned_records")
			e.Approx.Parts = append(e.Approx.Parts, p)
		case s.Name == SpanPointPatHalo:
			if e.PointPat == nil {
				e.PointPat = &PointPatExplain{}
			}
			if v, ok := s.Str("stat"); ok {
				e.PointPat.Stat = v
			}
			if v, ok := s.Int("halo_points"); ok {
				e.PointPat.HaloPoints += v
			}
			if v, ok := s.Int("halo_bytes"); ok {
				e.PointPat.HaloBytes += v
			}
		case s.Name == SpanPointPatPairs:
			if e.PointPat == nil {
				e.PointPat = &PointPatExplain{}
			}
			if v, ok := s.Str("stat"); ok {
				e.PointPat.Stat = v
			}
			if v, ok := s.Int("pairs_tested"); ok {
				e.PointPat.PairsTested += v
			}
			if v, ok := s.Int("pairs_counted"); ok {
				e.PointPat.PairsCounted += v
			}
		case s.Name == SpanScatter:
			// The router plans from the same metadata a single node would,
			// so its scatter span carries the partition-prune outcome; the
			// shards' grafted sub-query spans carry only what they selected
			// and read, keeping every counter single-counted.
			total, _ := s.Int("total_partitions")
			kept, _ := s.Int("kept_partitions")
			e.TotalPartitions += total
			e.ReadPartitions += kept
			e.PrunedPartitions += total - kept
			if v, ok := s.Int("loaded_records"); ok {
				e.RecordsLoaded += v
			}
			if v, ok := s.Int("loaded_bytes"); ok {
				e.PartitionBytes += v
			}
			if e.Scatter == nil {
				e.Scatter = &ScatterExplain{}
			}
			if v, ok := s.Int("shards"); ok {
				e.Scatter.Shards = v
			}
			if v, ok := s.Int("width"); ok {
				e.Scatter.Width += v
			}
			if v, ok := s.Int("replans"); ok {
				e.Scatter.Replans += v
			}
		case s.Name == SpanRPC:
			if e.Scatter == nil {
				e.Scatter = &ScatterExplain{}
			}
			rpc := RPCExplain{WallMS: float64(s.Duration.Microseconds()) / 1000}
			rpc.Shard, _ = s.Str("shard")
			rpc.Replica, _ = s.Str("replica")
			rpc.Partitions, _ = s.Int("partitions")
			rpc.Attempts, _ = s.Int("attempts")
			rpc.Selected, _ = s.Int("selected")
			if v, ok := s.Int("hedges"); ok {
				e.Scatter.Hedges += v
			}
			if v, ok := s.Int("failovers"); ok {
				e.Scatter.Failovers += v
			}
			e.Scatter.RPCs = append(e.Scatter.RPCs, rpc)
		}
		if s.Parent == 0 {
			if ms := float64(s.Duration.Microseconds()) / 1000; ms > e.WallMS {
				e.WallMS = ms
			}
		}
	}
	e.PartitionHits = fetches - e.PartitionLoads
	// Task spans: committed attempts count as runs, attempt>0 as retries.
	for _, s := range spans {
		if s.Name != SpanTask {
			continue
		}
		attempt, _ := s.Int("attempt")
		committed := s.BoolAttr("committed")
		speculative := s.BoolAttr("speculative")
		if committed {
			e.TasksRun++
		}
		if attempt > 0 {
			e.TaskRetries++
		}
		if speculative {
			e.Speculative++
		}
		if idx, ok := stageOf[s.Parent]; ok {
			if attempt > 0 {
				e.Stages[idx].Retries++
			}
			if speculative {
				e.Stages[idx].Speculative++
			}
		}
	}
	return e
}

// addBlockAttrs folds one disk-read span's block counters into the report.
func (e *Explain) addBlockAttrs(s SpanRecord) {
	if v, ok := s.Int("blocks_scanned"); ok {
		e.BlocksScanned += v
	}
	if v, ok := s.Int("blocks_pruned"); ok {
		e.BlocksPruned += v
	}
	if v, ok := s.Int("raw_bytes"); ok {
		e.BytesDecompressed += v
	}
	if v, ok := s.Int("records_pruned"); ok {
		e.RecordsPruned += v
	}
}

// Fprint renders the report as the human-readable text stquery -explain
// prints.
func (e *Explain) Fprint(w io.Writer) {
	if e == nil {
		return
	}
	fmt.Fprintf(w, "== query explain ==\n")
	fmt.Fprintf(w, "wall: %.3f ms (%d spans)\n", e.WallMS, e.Spans)
	fmt.Fprintf(w, "partitions: %d read, %d pruned (of %d); %d bytes read\n",
		e.ReadPartitions, e.PrunedPartitions, e.TotalPartitions, e.PartitionBytes)
	fmt.Fprintf(w, "blocks: %d scanned, %d pruned; %d bytes decompressed\n",
		e.BlocksScanned, e.BlocksPruned, e.BytesDecompressed)
	if e.RecordsPruned > 0 {
		fmt.Fprintf(w, "columnar: %d records pruned before materialization\n", e.RecordsPruned)
	}
	if e.DeltaFilesRead > 0 || e.DeltaFilesPruned > 0 || e.Compactions > 0 {
		fmt.Fprintf(w, "deltas: %d files read, %d pruned; %d records; %d compactions\n",
			e.DeltaFilesRead, e.DeltaFilesPruned, e.DeltaRecords, e.Compactions)
	}
	if e.SubscribeMatches > 0 || e.SubscribePushes > 0 {
		fmt.Fprintf(w, "subscribe: %d batches matched, %d updates pushed (%d records)\n",
			e.SubscribeMatches, e.SubscribePushes, e.SubscribeRecords)
	}
	fmt.Fprintf(w, "records: %d loaded, %d selected\n", e.RecordsLoaded, e.RecordsSelected)
	fmt.Fprintf(w, "shuffle: %d records, %d bytes\n", e.ShuffleRecords, e.ShuffleBytes)
	fmt.Fprintf(w, "tasks: %d run, %d retried, %d speculative; %d r-tree builds\n",
		e.TasksRun, e.TaskRetries, e.Speculative, e.RTreeBuilds)
	if e.ResultCache != "" {
		fmt.Fprintf(w, "serving: result cache %s; partitions %d cached, %d loaded; admission wait %.3f ms\n",
			e.ResultCache, e.PartitionHits, e.PartitionLoads, e.AdmissionWaitMS)
	}
	if e.Approx != nil {
		fmt.Fprintf(w, "approx: agg=%s; %d summary blocks, %d blocks scanned, %d records scanned",
			e.Approx.Agg, e.Approx.SummaryBlocks, e.Approx.ScannedBlocks, e.Approx.ScannedRecords)
		if e.Approx.Fallback {
			fmt.Fprintf(w, "; exact fallback")
		}
		fmt.Fprintf(w, "\n")
		for _, p := range e.Approx.Parts {
			fmt.Fprintf(w, "  partition %d: %s (%d summary blocks, %d scanned, %d records)\n",
				p.ID, p.Source, p.SummaryBlocks, p.ScannedBlocks, p.ScannedRecords)
		}
	}
	if e.PointPat != nil {
		fmt.Fprintf(w, "pointpat: stat=%s; halo %d points (%d bytes); %d pairs tested, %d counted\n",
			e.PointPat.Stat, e.PointPat.HaloPoints, e.PointPat.HaloBytes,
			e.PointPat.PairsTested, e.PointPat.PairsCounted)
	}
	if e.Scatter != nil {
		fmt.Fprintf(w, "scatter: %d/%d shards; %d hedged, %d failovers, %d replans\n",
			e.Scatter.Width, e.Scatter.Shards, e.Scatter.Hedges, e.Scatter.Failovers, e.Scatter.Replans)
		for _, r := range e.Scatter.RPCs {
			fmt.Fprintf(w, "  shard %s → %s: %d partitions, %d attempts, %d selected, %.3f ms\n",
				r.Shard, r.Replica, r.Partitions, r.Attempts, r.Selected, r.WallMS)
		}
	}
	if len(e.Stages) == 0 {
		return
	}
	width := len("stage")
	for _, st := range e.Stages {
		if len(st.Name) > width {
			width = len(st.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %6s  %9s  %7s  %5s  %9s\n",
		width, "stage", "tasks", "records", "retries", "spec", "wall_ms")
	for _, st := range e.Stages {
		fmt.Fprintf(w, "%-*s  %6d  %9d  %7d  %5d  %9.3f\n",
			width, st.Name, st.Tasks, st.Records, st.Retries, st.Speculative, st.WallMS)
	}
}

// StageByName returns the first stage entry with the given name.
func (e *Explain) StageByName(name string) (StageExplain, bool) {
	for _, st := range e.Stages {
		if st.Name == name {
			return st, true
		}
	}
	return StageExplain{}, false
}
