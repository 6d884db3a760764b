package baseline

import (
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// GeoSpark models the GeoSpark/Sedona design as the paper describes it
// (§5.2): every range-query application starts by loading the whole dataset
// into memory, KD-tree partitioning it spatially (no temporal awareness),
// and building a per-partition spatial index; range queries filter
// spatially through the index and temporally by parsing string attributes.
type GeoSpark struct {
	ctx    *engine.Context
	loaded *engine.RDD[Feature]
}

// NewGeoSpark creates the system over a simulated cluster.
func NewGeoSpark(ctx *engine.Context) *GeoSpark { return &GeoSpark{ctx: ctx} }

// IngestEventsToDisk writes event records in the baseline's on-disk layout
// — unpartitioned feature files without ST metadata (GeoSpark has no
// persistent index; it ingests ad hoc per application).
func IngestEventsToDisk(ctx *engine.Context, recs []stdata.EventRec, dir string, parts int) (*storage.Metadata, error) {
	feats := make([]Feature, len(recs))
	for i, e := range recs {
		feats[i] = FromEventRec(e)
	}
	return ingestFeatures(ctx, feats, dir, parts)
}

// IngestTrajsToDisk writes trajectory records in the baseline layout.
func IngestTrajsToDisk(ctx *engine.Context, recs []stdata.TrajRec, dir string, parts int) (*storage.Metadata, error) {
	feats := make([]Feature, len(recs))
	for i, t := range recs {
		feats[i] = FromTrajRec(t)
	}
	return ingestFeatures(ctx, feats, dir, parts)
}

func ingestFeatures(ctx *engine.Context, feats []Feature, dir string, parts int) (*storage.Metadata, error) {
	r := engine.Parallelize(ctx, feats, parts)
	return selection.IngestUnpartitioned(r, dir, FeatureC, Feature.Box,
		selection.IngestOptions{Name: "baseline-features"})
}

// Load reads the entire dataset into memory, KD-tree partitions it by
// space, and caches it — the load-everything step whose cost Fig. 7
// attributes to GeoSpark. Subsequent RangeQuery calls reuse the cache.
func (g *GeoSpark) Load(dir string, numPartitions int) error {
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		return err
	}
	raw := engine.Generate(g.ctx, "geospark-load", meta.NumPartitions(), func(p int) []Feature {
		recs, err := storage.ReadPartition(dir, meta, p, FeatureC)
		if err != nil {
			panic(err)
		}
		return recs
	}).Cache() // one disk pass; sampling and partitioning hit memory
	// Spatial-only KD partitioning over the full data.
	spatialBox := func(f Feature) index.Box { return index.Box2(f.MBR()) }
	partitioned, _ := partition.ByPlanner(raw, FeatureC, spatialBox,
		partition.KDTree{N: numPartitions},
		partition.Options{SampleFrac: 0.01, Seed: 1})
	g.loaded = partitioned.Cache()
	g.loaded.Count() // force the load
	return nil
}

// RangeQuery selects the loaded features intersecting the ST window. The
// spatial filter runs through a per-partition R-tree built on the fly; the
// temporal filter parses every candidate's string timestamps.
func (g *GeoSpark) RangeQuery(space geom.MBR, dur tempo.Duration) *engine.RDD[Feature] {
	if g.loaded == nil {
		panic("baseline: GeoSpark.RangeQuery before Load")
	}
	return engine.MapPartitions(g.loaded, func(_ int, in []Feature) []Feature {
		items := make([]index.Item[int], len(in))
		for i, f := range in {
			items[i] = index.Item[int]{Box: index.Box2(f.MBR()), Data: i}
		}
		tree := index.BulkLoadSTR(items, 16)
		var out []Feature
		tree.SearchFunc(index.Box2(space), func(i int, _ index.Box) bool {
			// Temporal refinement: parse the string timestamps.
			if in[i].Duration().Intersects(dur) {
				out = append(out, in[i])
			}
			return true
		})
		return out
	})
}
