package bench

import (
	"fmt"
	"time"

	"st4ml/internal/codec"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// Ablation experiments isolating individual design choices (DESIGN.md's
// ablation list). Each returns the two alternatives' times so callers and
// benchmarks report the ratio.

// AblationShuffle compares the engine's reduceByKey (map-side combine)
// against groupByKey (full shuffle) on a keyed count — the §2.2 example of
// why operator choice matters on Spark.
func AblationShuffle(ctx *engine.Context, n, keys int) (reduceMs, groupMs float64, shuffledReduce, shuffledGroup int64) {
	pairs := make([]codec.Pair[int64, int64], n)
	for i := range pairs {
		pairs[i] = codec.KV(int64(i%keys), int64(1))
	}
	r := engine.Parallelize(ctx, pairs, 0)

	ctx.Metrics.Reset()
	t0 := time.Now()
	engine.ReduceByKey(r, codec.Int64, codec.Int64,
		func(a, b int64) int64 { return a + b }, 0).Count()
	reduceMs = msSince(t0)
	shuffledReduce = ctx.Metrics.Snapshot().ShuffleRecords

	ctx.Metrics.Reset()
	t0 = time.Now()
	grouped := engine.GroupByKey(r, codec.Int64, codec.Int64, 0)
	engine.MapValues(grouped, func(vs []int64) int64 {
		var s int64
		for _, v := range vs {
			s += v
		}
		return s
	}).Count()
	groupMs = msSince(t0)
	shuffledGroup = ctx.Metrics.Snapshot().ShuffleRecords
	return reduceMs, groupMs, shuffledReduce, shuffledGroup
}

// AblationSelectorIndex compares multi-window selection filtering through
// the paper's per-partition on-the-fly R-tree (§3.1: STR bulk-loaded over a
// loaded partition, probed once per window, a hit bitmap gathering the
// union) against a linear scan, over the same loaded partitions; only the
// filter is timed. Indexing is meant to amortize across the windows
// selected from one load.
func AblationSelectorIndex(env *Env, numWindows int) (indexedMs, scanMs float64) {
	parts, qs := selectorInputs(env, numWindows)
	indexedMs, kept := timeSelectorFilter(parts, qs, rtreeFilter)
	scanMs, want := timeSelectorFilter(parts, qs, scanFilter)
	if kept != want {
		panic(fmt.Sprintf("ablation: R-tree filter kept %d records, scan %d", kept, want))
	}
	return indexedMs, scanMs
}

// AblationSelectorRuns times the filter selection runs today — the run
// index, one box per 16 consecutive records — over AblationSelectorIndex's
// partitions and windows.
func AblationSelectorRuns(env *Env, numWindows int) (runsMs float64) {
	parts, qs := selectorInputs(env, numWindows)
	runsMs, kept := timeSelectorFilter(parts, qs, runsFilter)
	if _, want := timeSelectorFilter(parts, qs, scanFilter); kept != want {
		panic(fmt.Sprintf("ablation: run index kept %d records, scan %d", kept, want))
	}
	return runsMs
}

// selectorInputs loads every partition of the event store whole, as the
// full-scan Select does, and draws numWindows windows over it.
func selectorInputs(env *Env, numWindows int) ([][]index.Box, []index.Box) {
	meta, err := storage.ReadMetadata(env.EventDir)
	if err != nil {
		panic(err)
	}
	parts := make([][]index.Box, meta.NumPartitions())
	for id := range parts {
		recs, err := storage.ReadPartition(env.EventDir, meta, id, stdata.EventRecC)
		if err != nil {
			panic(err)
		}
		parts[id] = make([]index.Box, len(recs))
		for i, rec := range recs {
			parts[id][i] = rec.Box()
		}
	}
	windows := RandomWindows(datagen.NYCExtent, datagen.Year2013, 0.1, numWindows, 71)
	qs := make([]index.Box, len(windows))
	for i, w := range windows {
		qs[i] = w.Box()
	}
	return parts, qs
}

// timeSelectorFilter runs filter over every partition and returns the time
// it took and the records it kept.
func timeSelectorFilter(parts [][]index.Box, qs []index.Box, filter func([]index.Box, []index.Box) int) (ms float64, kept int) {
	t0 := time.Now()
	for _, boxes := range parts {
		kept += filter(boxes, qs)
	}
	return msSince(t0), kept
}

// scanFilter tests every record against the windows.
func scanFilter(boxes, qs []index.Box) int {
	kept := 0
	for _, b := range boxes {
		for _, q := range qs {
			if b.Intersects(q) {
				kept++
				break
			}
		}
	}
	return kept
}

// rtreeFilter bulk-loads an STR tree over the partition, probes it once
// per window and unions the hits through a bitmap.
func rtreeFilter(boxes, qs []index.Box) int {
	items := make([]index.Item[int], len(boxes))
	for i, b := range boxes {
		items[i] = index.Item[int]{Box: b, Data: i}
	}
	tree := index.BulkLoadSTR(items, 16)
	hit := make([]bool, len(boxes))
	kept := 0
	for _, q := range qs {
		tree.SearchFunc(q, func(i int, _ index.Box) bool {
			if !hit[i] {
				hit[i] = true
				kept++
			}
			return true
		})
	}
	return kept
}

// runsFilter searches the partition's run index for all windows at once.
func runsFilter(boxes, qs []index.Box) int {
	kept := 0
	index.NewRuns(boxes).Search(qs, func(int, int) bool {
		kept++
		return true
	})
	return kept
}

// AblationRTreeBuild compares STR bulk loading against one-by-one Guttman
// insertion for throwaway R-trees: the paper's per-partition selection
// index and the conversion targets' indexes.
func AblationRTreeBuild(n int) (bulkMs, insertMs float64) {
	events := datagen.NYC(n, 13)
	items := make([]index.Item[int], len(events))
	for i, e := range events {
		items[i] = index.Item[int]{Box: e.Box(), Data: i}
	}
	t0 := time.Now()
	index.BulkLoadSTR(items, 16)
	bulkMs = msSince(t0)

	t0 = time.Now()
	tree := index.NewRTree[int](16)
	for _, it := range items {
		tree.Insert(it.Box, it.Data)
	}
	insertMs = msSince(t0)
	return bulkMs, insertMs
}

// AblationTable formats ablation results.
func AblationTable(env *Env) *Table {
	t := NewTable("Ablations: individual design choices",
		"choice", "optimized_ms", "baseline_ms", "ratio", "note")
	rMs, gMs, rShuf, gShuf := AblationShuffle(env.Ctx, 200_000, 64)
	t.Add("reduceByKey vs groupByKey", rMs, gMs, ratio(gMs, rMs),
		formatShuffle(rShuf, gShuf))
	iMs, sMs := AblationSelectorIndex(env, 10)
	t.Add("per-partition R-tree vs scan", iMs, sMs, ratio(sMs, iMs), "10 windows/load, filter only")
	runsMs := AblationSelectorRuns(env, 10)
	t.Add("run index vs scan", runsMs, sMs, ratio(sMs, runsMs), "10 windows/load, filter only")
	bMs, insMs := AblationRTreeBuild(50_000)
	t.Add("STR bulk vs insert build", bMs, insMs, ratio(insMs, bMs), "50k boxes")
	return t
}

func formatShuffle(r, g int64) string {
	return fmt.Sprintf("shuffled %d vs %d records", r, g)
}
