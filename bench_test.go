package st4ml

// Top-level benchmarks: one per table and figure of the paper's evaluation
// (§5–§6), each delegating to the experiment drivers in internal/bench at a
// laptop-friendly scale. Run them with
//
//	go test -bench=. -benchmem
//
// and regenerate the full report tables with
//
//	go run ./cmd/stbench -exp all
//
// Per-benchmark custom metrics expose the paper's headline ratios (e.g.
// prune fractions, naive/rtree speedups) alongside ns/op.

import (
	"os"
	"sync"
	"testing"

	"st4ml/internal/bench"
	"st4ml/internal/engine"
)

var (
	benchOnce sync.Once
	benchEnv  *bench.Env
	benchDir  string
	benchErr  error
)

// benchScale keeps `go test -bench=.` in the minutes range; cmd/stbench
// sweeps larger.
var benchScale = bench.Scale{
	Events: 60_000, Trajs: 6_000, POIs: 30_000, Areas: 256, AirSta: 8,
}

func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchDir, benchErr = os.MkdirTemp("", "st4ml-benchenv-*")
		if benchErr != nil {
			return
		}
		ctx := engine.New(engine.Config{})
		benchEnv, benchErr = bench.NewEnv(ctx, benchDir, benchScale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// BenchmarkFig5_Selection measures load+select with the on-disk metadata
// index against the native full-scan path (Fig. 5).
func BenchmarkFig5_Selection(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	var rows []bench.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig5(env, []float64{0.1, 0.4}, 2)
	}
	b.StopTimer()
	var nat, idx float64
	for _, r := range rows {
		nat += r.NativeMs
		idx += r.IndexedMs
	}
	if idx > 0 {
		b.ReportMetric(nat/idx, "native/indexed")
	}
}

// BenchmarkFig6_Conversion measures singular→collective conversion under
// naive, regular, and R-tree allocation (Fig. 6).
func BenchmarkFig6_Conversion(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	var rows []bench.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig6(env, []int{64}, []int{8}, []int{6})
	}
	b.StopTimer()
	var naive, rtree float64
	for _, r := range rows {
		naive += r.NaiveMs
		rtree += r.RTreeMs
	}
	if rtree > 0 {
		b.ReportMetric(naive/rtree, "naive/rtree")
	}
}

// BenchmarkTable5_LoadBalance measures partitioner CV/OV computation
// (Table 5) and reports T-STR's overlap metric.
func BenchmarkTable5_LoadBalance(b *testing.B) {
	env := sharedEnv(b)
	b.ResetTimer()
	var rows []bench.Table5Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table5(env, 64, 8, 8)
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Partitioner == "ST4ML(T-STR)" && r.Dataset == "event" {
			b.ReportMetric(r.OV, "tstr-ov")
			b.ReportMetric(r.CV, "tstr-cv")
		}
	}
}

// BenchmarkTable6_TSTRvsSTR measures T-STR against 2-d STR on selection and
// companion extraction (Table 6).
func BenchmarkTable6_TSTRvsSTR(b *testing.B) {
	env := sharedEnv(b)
	dir, err := os.MkdirTemp("", "st4ml-t6-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	b.ResetTimer()
	var res bench.Table6Result
	for i := 0; i < b.N; i++ {
		res, err = bench.Table6(env, dir, 64, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.LoadEventTSTR > 0 {
		b.ReportMetric(res.LoadEventSTR2D/res.LoadEventTSTR, "load-speedup")
	}
	if res.CompEventTSTR > 0 {
		b.ReportMetric(res.CompEventSTR2D/res.CompEventTSTR, "companion-speedup")
	}
}

// benchmarkFig7App runs one Fig. 7 application across the systems.
func benchmarkFig7App(b *testing.B, app bench.App) {
	env := sharedEnv(b)
	b.ResetTimer()
	var rows []bench.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig7(env, []bench.App{app}, bench.AllSystems, 0.3, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var st4ml, worst float64
	for _, r := range rows {
		if r.System == bench.ST4MLB {
			st4ml = r.Ms
		}
		if r.Ms > worst {
			worst = r.Ms
		}
	}
	if st4ml > 0 {
		b.ReportMetric(worst/st4ml, "worst/st4ml")
	}
}

// BenchmarkFig7 covers the eight end-to-end applications (Fig. 7a–7h).
func BenchmarkFig7(b *testing.B) {
	for _, app := range bench.AllApps {
		app := app
		b.Run(string(app), func(b *testing.B) { benchmarkFig7App(b, app) })
	}
}

// BenchmarkTable8_LoC measures the LoC analysis itself (Table 8 is static
// source analysis; the interesting output is the ratio).
func BenchmarkTable8_LoC(b *testing.B) {
	var rows []bench.Table8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var sb, sg int
	for _, r := range rows {
		sb += r.ST4MLB
		sg += r.GeoSpark
	}
	if sb > 0 {
		b.ReportMetric(float64(sg)/float64(sb), "geospark/st4ml-loc")
	}
}

// BenchmarkFig9_CaseStudy measures the daily traffic-speed case study.
func BenchmarkFig9_CaseStudy(b *testing.B) {
	ctx := engine.New(engine.Config{})
	city := bench.NewCaseStudyCity()
	b.ResetTimer()
	var rows []bench.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = bench.Fig9(ctx, city, 2, 150)
	}
	b.StopTimer()
	var st4ml, gs float64
	for _, r := range rows {
		st4ml += r.ST4MLMs
		gs += r.GeoSparkMs
	}
	if st4ml > 0 {
		b.ReportMetric(gs/st4ml, "geospark/st4ml")
	}
}

// BenchmarkAblations measures the isolated design choices of DESIGN.md:
// shuffle idiom, selection indexing, and R-tree build mode.
func BenchmarkAblations(b *testing.B) {
	env := sharedEnv(b)
	b.Run("reduce-vs-group", func(b *testing.B) {
		var rMs, gMs float64
		for i := 0; i < b.N; i++ {
			rMs, gMs, _, _ = bench.AblationShuffle(env.Ctx, 100_000, 64)
		}
		b.StopTimer()
		if rMs > 0 {
			b.ReportMetric(gMs/rMs, "group/reduce")
		}
	})
	b.Run("selector-index", func(b *testing.B) {
		var iMs, sMs float64
		for i := 0; i < b.N; i++ {
			iMs, sMs = bench.AblationSelectorIndex(env, 8)
		}
		b.StopTimer()
		if iMs > 0 {
			b.ReportMetric(sMs/iMs, "scan/indexed")
		}
	})
	b.Run("rtree-build", func(b *testing.B) {
		var bulk, insert float64
		for i := 0; i < b.N; i++ {
			bulk, insert = bench.AblationRTreeBuild(30_000)
		}
		b.StopTimer()
		if bulk > 0 {
			b.ReportMetric(insert/bulk, "insert/bulk")
		}
	})
}

// BenchmarkTable9_RoadFlow measures the map-matching road-flow case study.
func BenchmarkTable9_RoadFlow(b *testing.B) {
	ctx := engine.New(engine.Config{})
	city := bench.NewCaseStudyCity()
	b.ResetTimer()
	var rows []bench.Table9Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table9(ctx, city, 1, 150)
	}
	b.StopTimer()
	if len(rows) > 0 && rows[0].ProcessingMs > 0 {
		b.ReportMetric(float64(rows[0].TotalFlow), "flow-observations")
	}
}
