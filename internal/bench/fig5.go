package bench

import (
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
)

// Fig5Row is one point of Fig. 5: selection cost with and without the
// on-disk metadata index, at one query-range fraction.
type Fig5Row struct {
	Dataset       string
	Frac          float64
	NativeMs      float64
	IndexedMs     float64
	LoadedNative  int64 // records loaded by the native full-scan path
	LoadedIndexed int64 // records loaded after metadata pruning
	Selected      int64 // records actually matching the windows
	// Byte-level view of the same pruning (the memory plot of Fig. 5c/d).
	BytesNative  int64
	BytesIndexed int64
	// Block-granularity view: the indexed path additionally skips blocks
	// inside loaded partitions whose footer bounds miss the window, so it
	// decodes fewer bytes than it loads.
	BlocksScanned int64
	BlocksPruned  int64
	RawNative     int64 // bytes decoded by the full-scan path
	RawIndexed    int64 // bytes decoded after partition + block pruning
}

// Fig5 measures loading+selection with the native path (load everything,
// filter in memory — Fig. 5's "native Spark") against the metadata-pruned
// path (§4.1), per dataset and query-range fraction, summing over
// queriesPerFrac sequential random windows.
func Fig5(env *Env, fracs []float64, queriesPerFrac int) []Fig5Row {
	var rows []Fig5Row
	evSel := selection.New(env.Ctx, stdata.EventRecC, stdata.EventRec.Box, nil,
		selection.Config{Index: true})
	trSel := selection.New(env.Ctx, stdata.TrajRecC, stdata.TrajRec.Box, nil,
		selection.Config{Index: true})
	for _, frac := range fracs {
		rows = append(rows, fig5Dataset(env, "event", frac, queriesPerFrac,
			func(w selection.Window, pruned bool) (selection.Stats, error) {
				if pruned {
					_, st, err := evSel.SelectPruned(env.EventDir, w)
					return st, err
				}
				_, st, err := evSel.Select(env.EventDir, w)
				return st, err
			}))
		rows = append(rows, fig5Dataset(env, "traj", frac, queriesPerFrac,
			func(w selection.Window, pruned bool) (selection.Stats, error) {
				if pruned {
					_, st, err := trSel.SelectPruned(env.TrajDir, w)
					return st, err
				}
				_, st, err := trSel.Select(env.TrajDir, w)
				return st, err
			}))
	}
	return rows
}

func fig5Dataset(
	env *Env, dataset string, frac float64, queries int,
	run func(w selection.Window, pruned bool) (selection.Stats, error),
) Fig5Row {
	extent := datagen.NYCExtent
	if dataset == "traj" {
		extent = datagen.PortoExtent
	}
	windows := RandomWindows(extent, datagen.Year2013, frac, queries, int64(frac*1000)+7)
	row := Fig5Row{Dataset: dataset, Frac: frac}
	for _, w := range windows {
		t0 := time.Now()
		st, err := run(w, false)
		if err != nil {
			panic(err)
		}
		row.NativeMs += float64(time.Since(t0).Microseconds()) / 1000
		row.LoadedNative += st.LoadedRecords
		row.BytesNative += st.LoadedBytes
		row.RawNative += st.DecompressedBytes
		row.Selected += st.SelectedRecords

		t0 = time.Now()
		st, err = run(w, true)
		if err != nil {
			panic(err)
		}
		row.IndexedMs += float64(time.Since(t0).Microseconds()) / 1000
		row.LoadedIndexed += st.LoadedRecords
		row.BytesIndexed += st.LoadedBytes
		row.RawIndexed += st.DecompressedBytes
		row.BlocksScanned += st.BlocksScanned
		row.BlocksPruned += st.BlocksPruned
	}
	return row
}

// Fig5Table formats the rows.
func Fig5Table(rows []Fig5Row) *Table {
	t := NewTable("Fig 5: selection time and loaded data, native vs on-disk index",
		"dataset", "range", "native_ms", "indexed_ms", "saving",
		"loaded_native", "loaded_indexed", "selected", "pruned_frac",
		"mb_native", "mb_indexed", "blk_scan", "blk_prune", "raw_mb_nat", "raw_mb_idx")
	for _, r := range rows {
		saving := 0.0
		if r.NativeMs > 0 {
			saving = 1 - r.IndexedMs/r.NativeMs
		}
		prunedFrac := 0.0
		if irrelevant := r.LoadedNative - r.Selected; irrelevant > 0 {
			prunedFrac = float64(r.LoadedNative-r.LoadedIndexed) / float64(irrelevant)
		}
		t.Add(r.Dataset, r.Frac, r.NativeMs, r.IndexedMs, saving,
			r.LoadedNative, r.LoadedIndexed, r.Selected, prunedFrac,
			float64(r.BytesNative)/(1<<20), float64(r.BytesIndexed)/(1<<20),
			r.BlocksScanned, r.BlocksPruned,
			float64(r.RawNative)/(1<<20), float64(r.RawIndexed)/(1<<20))
	}
	return t
}
