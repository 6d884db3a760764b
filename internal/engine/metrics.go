package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics aggregates execution counters for a Context. All fields are safe
// for concurrent update; Snapshot returns a consistent-enough copy for
// reporting (individual counters are atomic; cross-counter consistency is
// not guaranteed mid-job).
type Metrics struct {
	tasksRun       atomic.Int64
	recordsOut     atomic.Int64
	shuffleRecords atomic.Int64
	shuffleBytes   atomic.Int64
	broadcasts     atomic.Int64
	broadcastBytes atomic.Int64
	taskNanos      atomic.Int64
	taskRetries    atomic.Int64
	specLaunched   atomic.Int64
	specWins       atomic.Int64
	corruptRereads atomic.Int64

	// Block-level read accounting: how many partition blocks were decoded
	// versus skipped by footer-bounds pruning, and the payload byte volume
	// actually decoded.
	blocksScanned     atomic.Int64
	blocksPruned      atomic.Int64
	bytesDecompressed atomic.Int64
	recordsPruned     atomic.Int64

	// Delta-layer accounting: delta files unioned into partition reads
	// (merge-on-read) and the records they contributed.
	deltasRead   atomic.Int64
	deltaRecords atomic.Int64

	// Approximate-tier accounting: queries answered from summary sidecars,
	// the block summaries they consumed, and the blocks/records they still
	// scanned exactly (boundary blocks, deltas, fallbacks).
	approxQueries        atomic.Int64
	approxSummaryBlocks  atomic.Int64
	approxScannedBlocks  atomic.Int64
	approxScannedRecords atomic.Int64

	// Point-pattern accounting: rim points duplicated to neighboring
	// partitions by the halo exchange (and their encoded byte volume), plus
	// the candidate pairs the neighborhood counters tested and the
	// (pair, grid-cell) matches they recorded.
	haloPoints   atomic.Int64
	haloBytes    atomic.Int64
	pairsTested  atomic.Int64
	pairsCounted atomic.Int64

	stageMu       sync.Mutex
	stages        []StageStat
	stagesDropped int64
}

// AddBlockRead accounts one partition read at block granularity: scanned
// and pruned block counts plus decoded payload bytes. Callers sit in
// the storage read path (selection load tasks, the serving cache loader).
func (m *Metrics) AddBlockRead(scanned, pruned, rawBytes int64) {
	m.blocksScanned.Add(scanned)
	m.blocksPruned.Add(pruned)
	m.bytesDecompressed.Add(rawBytes)
}

// AddRecordsPruned accounts records the columnar predicate dropped on
// decoded columns before materialization.
func (m *Metrics) AddRecordsPruned(n int64) {
	m.recordsPruned.Add(n)
}

// AddDeltaRead accounts one merge-on-read partition read: how many delta
// files were unioned into the base and the records they contributed.
func (m *Metrics) AddDeltaRead(files, records int64) {
	m.deltasRead.Add(files)
	m.deltaRecords.Add(records)
}

// AddApprox accounts one approximate (summary-tier) query evaluation: the
// block summaries consumed and the blocks/records scanned exactly. The
// totals match the query's Result provenance, so explain output, result
// envelopes, and engine metrics agree.
func (m *Metrics) AddApprox(summaryBlocks, scannedBlocks, scannedRecords int64) {
	m.approxQueries.Add(1)
	m.approxSummaryBlocks.Add(summaryBlocks)
	m.approxScannedBlocks.Add(scannedBlocks)
	m.approxScannedRecords.Add(scannedRecords)
}

// AddHaloExchange accounts one partition halo exchange: the rim points
// duplicated to spatio-temporal neighbor partitions and their encoded byte
// volume (a subset of the shuffle counters, tracked separately so the cost
// of boundary correction is visible on its own).
func (m *Metrics) AddHaloExchange(points, bytes int64) {
	m.haloPoints.Add(points)
	m.haloBytes.Add(bytes)
}

// AddPairCount accounts one neighborhood pair-counting stage: candidate
// pairs whose distance predicate was evaluated, and pair matches recorded
// into the statistic's grid.
func (m *Metrics) AddPairCount(tested, counted int64) {
	m.pairsTested.Add(tested)
	m.pairsCounted.Add(counted)
}

// maxStageStats bounds the retained per-stage history. A long-running
// process (the serving daemon) executes stages indefinitely; only the most
// recent window is kept, and StagesDropped counts what aged out. The
// headline counters are unaffected — they aggregate every stage ever run.
const maxStageStats = 4096

// StageStat records one executed stage: its name, task count, wall-clock
// duration, and the makespan-relevant longest task.
type StageStat struct {
	Name        string
	Tasks       int
	Wall        time.Duration
	LongestTask time.Duration
	Records     int64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	TasksRun       int64
	RecordsOut     int64
	ShuffleRecords int64
	ShuffleBytes   int64
	Broadcasts     int64
	BroadcastBytes int64
	TaskTime       time.Duration
	// TaskRetries counts task attempts re-run after a failed attempt.
	TaskRetries int64
	// SpeculativeLaunched counts straggler duplicates launched.
	SpeculativeLaunched int64
	// SpeculativeWins counts tasks whose speculative duplicate committed
	// first.
	SpeculativeWins int64
	// CorruptRereads counts shuffle blocks re-read after a checksum
	// mismatch.
	CorruptRereads int64
	// BlocksScanned and BlocksPruned count partition blocks decoded versus
	// skipped by footer-bounds pruning; BytesDecompressed is the payload
	// volume decoded from the scanned blocks (the name predates the
	// columnar layout, which has no compression).
	BlocksScanned     int64
	BlocksPruned      int64
	BytesDecompressed int64
	// RecordsPruned counts records the v3 columnar predicate dropped on
	// decoded lon/lat/t columns before materialization.
	RecordsPruned int64
	// DeltasRead counts delta files unioned into partition reads and
	// DeltaRecords the records they contributed.
	DeltasRead   int64
	DeltaRecords int64
	// Approximate-tier counters: queries answered through the summary
	// sidecar path, block summaries consumed, blocks and records scanned
	// exactly alongside them.
	ApproxQueries        int64
	ApproxSummaryBlocks  int64
	ApproxScannedBlocks  int64
	ApproxScannedRecords int64
	// Point-pattern counters: rim points (and encoded bytes) duplicated by
	// halo exchanges, candidate pairs tested by neighborhood counters, and
	// (pair, grid-cell) matches recorded.
	HaloPoints   int64
	HaloBytes    int64
	PairsTested  int64
	PairsCounted int64
	// Stages holds the most recent executed stages (bounded window);
	// StagesDropped counts older entries that aged out of it.
	Stages        []StageStat
	StagesDropped int64
}

// Snapshot returns a copy of the current counters.
func (m *Metrics) Snapshot() Snapshot {
	m.stageMu.Lock()
	stages := make([]StageStat, len(m.stages))
	copy(stages, m.stages)
	dropped := m.stagesDropped
	m.stageMu.Unlock()
	return Snapshot{
		TasksRun:             m.tasksRun.Load(),
		RecordsOut:           m.recordsOut.Load(),
		ShuffleRecords:       m.shuffleRecords.Load(),
		ShuffleBytes:         m.shuffleBytes.Load(),
		Broadcasts:           m.broadcasts.Load(),
		BroadcastBytes:       m.broadcastBytes.Load(),
		TaskTime:             time.Duration(m.taskNanos.Load()),
		TaskRetries:          m.taskRetries.Load(),
		SpeculativeLaunched:  m.specLaunched.Load(),
		SpeculativeWins:      m.specWins.Load(),
		CorruptRereads:       m.corruptRereads.Load(),
		BlocksScanned:        m.blocksScanned.Load(),
		BlocksPruned:         m.blocksPruned.Load(),
		BytesDecompressed:    m.bytesDecompressed.Load(),
		RecordsPruned:        m.recordsPruned.Load(),
		DeltasRead:           m.deltasRead.Load(),
		DeltaRecords:         m.deltaRecords.Load(),
		ApproxQueries:        m.approxQueries.Load(),
		ApproxSummaryBlocks:  m.approxSummaryBlocks.Load(),
		ApproxScannedBlocks:  m.approxScannedBlocks.Load(),
		ApproxScannedRecords: m.approxScannedRecords.Load(),
		HaloPoints:           m.haloPoints.Load(),
		HaloBytes:            m.haloBytes.Load(),
		PairsTested:          m.pairsTested.Load(),
		PairsCounted:         m.pairsCounted.Load(),
		Stages:               stages,
		StagesDropped:        dropped,
	}
}

// Reset zeroes every counter. Benchmarks call it between runs.
func (m *Metrics) Reset() {
	m.tasksRun.Store(0)
	m.recordsOut.Store(0)
	m.shuffleRecords.Store(0)
	m.shuffleBytes.Store(0)
	m.broadcasts.Store(0)
	m.broadcastBytes.Store(0)
	m.taskNanos.Store(0)
	m.taskRetries.Store(0)
	m.specLaunched.Store(0)
	m.specWins.Store(0)
	m.corruptRereads.Store(0)
	m.blocksScanned.Store(0)
	m.blocksPruned.Store(0)
	m.bytesDecompressed.Store(0)
	m.recordsPruned.Store(0)
	m.deltasRead.Store(0)
	m.deltaRecords.Store(0)
	m.approxQueries.Store(0)
	m.approxSummaryBlocks.Store(0)
	m.approxScannedBlocks.Store(0)
	m.approxScannedRecords.Store(0)
	m.haloPoints.Store(0)
	m.haloBytes.Store(0)
	m.pairsTested.Store(0)
	m.pairsCounted.Store(0)
	m.stageMu.Lock()
	m.stages = nil
	m.stagesDropped = 0
	m.stageMu.Unlock()
}

func (m *Metrics) addStage(s StageStat) {
	m.stageMu.Lock()
	m.stages = append(m.stages, s)
	if len(m.stages) > maxStageStats {
		drop := len(m.stages) - maxStageStats
		m.stages = append(m.stages[:0], m.stages[drop:]...)
		m.stagesDropped += int64(drop)
	}
	m.stageMu.Unlock()
}

// String formats the headline counters on one line.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"tasks=%d records=%d shuffleRecords=%d shuffleBytes=%d broadcasts=%d taskTime=%s"+
			" retries=%d speculated=%d specWins=%d corruptRereads=%d"+
			" blocksScanned=%d blocksPruned=%d bytesDecompressed=%d recordsPruned=%d"+
			" deltasRead=%d deltaRecords=%d"+
			" approxQueries=%d approxSummaryBlocks=%d approxScannedBlocks=%d approxScannedRecords=%d"+
			" haloPoints=%d haloBytes=%d pairsTested=%d pairsCounted=%d",
		s.TasksRun, s.RecordsOut, s.ShuffleRecords, s.ShuffleBytes, s.Broadcasts, s.TaskTime,
		s.TaskRetries, s.SpeculativeLaunched, s.SpeculativeWins, s.CorruptRereads,
		s.BlocksScanned, s.BlocksPruned, s.BytesDecompressed, s.RecordsPruned,
		s.DeltasRead, s.DeltaRecords,
		s.ApproxQueries, s.ApproxSummaryBlocks, s.ApproxScannedBlocks, s.ApproxScannedRecords,
		s.HaloPoints, s.HaloBytes, s.PairsTested, s.PairsCounted)
}
