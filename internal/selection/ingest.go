package selection

import (
	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/partition"
	"st4ml/internal/storage"
)

// IngestOptions tunes offline dataset preparation.
type IngestOptions struct {
	// Name labels the dataset metadata.
	Name string
	// SampleFrac is the partition-planning sample fraction (0 = 1%).
	SampleFrac float64
	// Seed fixes sampling randomness.
	Seed int64
	// Duplicate stores records in every partition they overlap.
	Duplicate bool
	// BlockRecords is the records-per-block target of the file layout
	// (0 = storage.DefaultBlockRecordsV3). Smaller blocks prune harder on
	// narrow queries but cost more framing overhead.
	BlockRecords int
	// NoCluster skips the in-partition Z-order sort. Blocks then inherit
	// arrival order and their ST bounds overlap heavily, so intra-partition
	// pruning degrades to whole-partition reads.
	NoCluster bool
}

func (o IngestOptions) writeOptions() storage.WriteOptions {
	return storage.WriteOptions{Name: o.Name, BlockRecords: o.BlockRecords}
}

// clusterPartitions Z-orders each partition's records so the block
// layout's record ranges cover small, mostly disjoint ST boxes. The sort
// itself lives in storage.ZCluster, shared with the delta layer's appends
// and compactions so all three write paths produce equivalently clustered
// files.
func clusterPartitions[T any](parts [][]T, boxOf func(T) index.Box) {
	for _, part := range parts {
		storage.ZCluster(part, boxOf)
	}
}

// Ingest performs the offline preparation of §4.1: ST-partition the records
// with the planner, persist the partitions under dir, and write the
// metadata index recording each partition's ST bounds. This is the Go
// equivalent of the paper's
//
//	eventRDD.stPartitionWithInfo(TSTRPartitioner(gt, gs)); pInfo.toDisk(...)
func Ingest[T any](
	r *engine.RDD[T],
	dir string,
	c codec.Codec[T],
	boxOf func(T) index.Box,
	planner partition.Planner,
	opts IngestOptions,
) (*storage.Metadata, error) {
	partitioned, _ := partition.ByPlanner(r, c, boxOf, planner, partition.Options{
		SampleFrac: opts.SampleFrac,
		Seed:       opts.Seed,
		Duplicate:  opts.Duplicate,
	})
	parts := partitioned.CollectPartitions()
	if !opts.NoCluster {
		clusterPartitions(parts, boxOf)
	}
	return storage.Write(dir, c, parts, boxOf, opts.writeOptions())
}

// IngestUnpartitioned persists the RDD's current partition layout without
// ST-aware reshuffling — how a plain pipeline (or the GeoSpark-like
// baseline) would land data on disk.
func IngestUnpartitioned[T any](
	r *engine.RDD[T],
	dir string,
	c codec.Codec[T],
	boxOf func(T) index.Box,
	opts IngestOptions,
) (*storage.Metadata, error) {
	parts := r.CollectPartitions()
	if !opts.NoCluster {
		clusterPartitions(parts, boxOf)
	}
	return storage.Write(dir, c, parts, boxOf, opts.writeOptions())
}
