package bench

import (
	"fmt"
	"time"

	"st4ml/internal/codec"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
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

// AblationSelectorIndex compares multi-window selection with and without
// the per-partition on-the-fly R-tree (§3.1): indexing amortizes across
// windows selected from one load.
func AblationSelectorIndex(env *Env, numWindows int) (indexedMs, scanMs float64) {
	windows := RandomWindows(datagen.NYCExtent, datagen.Year2013, 0.1, numWindows, 71)
	run := func(useIndex bool) float64 {
		sel := selection.New(env.Ctx, stdata.EventRecC, stdata.EventRec.Box, nil,
			selection.Config{Index: useIndex})
		t0 := time.Now()
		if _, _, err := sel.Select(env.EventDir, windows...); err != nil {
			panic(err)
		}
		return msSince(t0)
	}
	return run(true), run(false)
}

// AblationRTreeBuild compares STR bulk loading against one-by-one Guttman
// insertion for the throwaway per-partition selection indexes.
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
	t.Add("per-partition R-tree vs scan", iMs, sMs, ratio(sMs, iMs), "10 windows/load")
	bMs, insMs := AblationRTreeBuild(50_000)
	t.Add("STR bulk vs insert build", bMs, insMs, ratio(insMs, bMs), "50k boxes")
	return t
}

func formatShuffle(r, g int64) string {
	return fmt.Sprintf("shuffled %d vs %d records", r, g)
}
