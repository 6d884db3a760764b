package engine

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"st4ml/internal/codec"
)

// TestMetricsConcurrentJobs hammers one Metrics value from many jobs running
// in parallel — Snapshot and Reset interleave with counter updates and
// addStage. Run under -race this is the concurrency-safety check for the
// metrics layer.
func TestMetricsConcurrentJobs(t *testing.T) {
	ctx := New(Config{Slots: 8, DefaultParallelism: 4, RetryBackoff: -1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := Parallelize(ctx, seq(64), 4)
				_ = PartitionBy(r, codec.Int, 4, func(v int) int { return v % 4 }).Collect()
				_ = ctx.Metrics.Snapshot()
				if g == 0 && i%3 == 0 {
					ctx.Metrics.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-quiescence: counters and stages must be internally readable.
	snap := ctx.Metrics.Snapshot()
	if snap.TasksRun < 0 {
		t.Errorf("TasksRun negative: %d", snap.TasksRun)
	}
}

func TestSnapshotStringIncludesFaultCounters(t *testing.T) {
	var m Metrics
	m.taskRetries.Store(3)
	m.specLaunched.Store(2)
	m.specWins.Store(1)
	m.corruptRereads.Store(4)
	s := m.Snapshot().String()
	for _, want := range []string{"retries=3", "speculated=2", "specWins=1", "corruptRereads=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("Snapshot.String() missing %q: %s", want, s)
		}
	}
}

func TestMetricsResetClearsFaultCounters(t *testing.T) {
	var m Metrics
	m.taskRetries.Store(5)
	m.specLaunched.Store(5)
	m.specWins.Store(5)
	m.corruptRereads.Store(5)
	m.AddBlockRead(3, 2, 1000)
	m.addStage(StageStat{Name: "s"})
	m.Reset()
	snap := m.Snapshot()
	if snap.TaskRetries != 0 || snap.SpeculativeLaunched != 0 ||
		snap.SpeculativeWins != 0 || snap.CorruptRereads != 0 || len(snap.Stages) != 0 ||
		snap.BlocksScanned != 0 || snap.BlocksPruned != 0 || snap.BytesDecompressed != 0 {
		t.Errorf("Reset left residue: %+v", snap)
	}
}

func TestAddBlockReadAccumulates(t *testing.T) {
	var m Metrics
	m.AddBlockRead(4, 12, 4096)
	m.AddBlockRead(1, 0, 512)
	snap := m.Snapshot()
	if snap.BlocksScanned != 5 || snap.BlocksPruned != 12 || snap.BytesDecompressed != 4608 {
		t.Errorf("block counters = %+v", snap)
	}
	s := snap.String()
	for _, want := range []string{"blocksScanned=5", "blocksPruned=12", "bytesDecompressed=4608"} {
		if !strings.Contains(s, want) {
			t.Errorf("Snapshot.String() missing %q: %s", want, s)
		}
	}
}

// TestStageRingMatchesSlice pins the stage ring against the slice it
// replaced, which appended and shifted out the oldest entries past
// maxStageStats: Snapshot returns the same stages, oldest first, and the
// same dropped count at every fill level up to three full turns.
func TestStageRingMatchesSlice(t *testing.T) {
	var m Metrics
	var ref []StageStat
	var refDropped int64
	for i := 1; i <= 3*maxStageStats; i++ {
		s := StageStat{Name: strconv.Itoa(i), Tasks: i, Records: int64(i)}
		m.addStage(s)
		ref = append(ref, s)
		if len(ref) > maxStageStats {
			drop := len(ref) - maxStageStats
			ref = append(ref[:0], ref[drop:]...)
			refDropped += int64(drop)
		}
		if i == 1 || i%(maxStageStats/2) == 0 || i == maxStageStats+1 || i == 3*maxStageStats {
			snap := m.Snapshot()
			if !reflect.DeepEqual(snap.Stages, ref) || snap.StagesDropped != refDropped {
				t.Fatalf("after %d stages: ring holds %d from %q (dropped %d), slice %d from %q (dropped %d)",
					i, len(snap.Stages), snap.Stages[0].Name, snap.StagesDropped, len(ref), ref[0].Name, refDropped)
			}
		}
	}
}

// TestStageRingFullAllocsNothing pins that recording a stage into a full
// ring allocates nothing: it overwrites the oldest slot.
func TestStageRingFullAllocsNothing(t *testing.T) {
	var m Metrics
	s := StageStat{Name: "stage", Tasks: 4}
	for i := 0; i < maxStageStats; i++ {
		m.addStage(s)
	}
	if n := testing.AllocsPerRun(1000, func() { m.addStage(s) }); n != 0 {
		t.Fatalf("addStage on a full ring: %.1f allocs, want 0", n)
	}
}
