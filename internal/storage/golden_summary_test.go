// Golden sidecar test: summary sidecars built over the committed golden
// datasets are themselves committed beside them, and every future decoder
// must keep answering the same approximate envelopes from those bytes —
// the approximate tier's byte-format contract, pinned the same way the
// record formats are. Regenerate the v3 golden's with
// `go test ./internal/storage -run TestGoldenSummary -update` only when
// intentionally re-seeding; the migrated goldens' sidecars are the ones
// their migrating compaction pass built, and cannot be regenerated.
package storage_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/tempo"
	"st4ml/internal/trace"
)

// goldenApprox runs one approximate aggregate against a golden dataset
// directory through the nyc schema (the golden records are EventRecs) and
// returns the envelope plus the built explain tree.
func goldenApprox(t *testing.T, dir string, w selection.Window, req stdata.ApproxRequest) (*summary.Result, *trace.Explain) {
	t.Helper()
	sch, ok := stdata.Lookup("nyc")
	if !ok {
		t.Fatal("nyc schema not registered")
	}
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	ctx := engine.New(engine.Config{Tracer: tr})
	res, _, err := sch.ApproxQuery(ctx, dir, meta, w, req)
	if err != nil {
		t.Fatalf("%s: approx query: %v", dir, err)
	}
	return res, trace.Build(tr.Snapshot())
}

// goldenWant loads the committed records.json beside a golden dataset.
func goldenWant(t *testing.T, dir string) [][]stdata.EventRec {
	t.Helper()
	var want [][]stdata.EventRec
	b, err := os.ReadFile(filepath.Join(dir, "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

var (
	goldenFullWindow = selection.Window{
		Space: geom.Box(-180, -90, 180, 90), Time: tempo.New(0, 1<<60),
	}
	// goldenHalfWindow straddles block boundaries in every generation, so
	// the envelope is genuinely approximate (nonzero width) on the blocked
	// layouts rather than collapsing to the certain-cover exact case.
	goldenHalfWindow = selection.Window{
		Space: geom.Box(-73.8, 40.7, -73.4, 41.0), Time: tempo.New(0, 1<<60),
	}
)

// TestGoldenSummarySidecarsServe pins the committed sidecars: every golden
// generation carries one per partition, the full-domain count answered
// from them is exact and equals the committed record count, and a
// boundary-straddling window still brackets the exact answer recomputed
// from records.json. With -update the v3 golden's sidecars (and the
// manifest referencing them) are rebuilt from its committed base files.
func TestGoldenSummarySidecarsServe(t *testing.T) {
	sch, _ := stdata.Lookup("nyc")
	for _, dir := range []string{goldenV1MigratedDir, goldenV2MigratedDir, goldenV3Dir} {
		if *updateGolden && dir == goldenV3Dir {
			// Drop any stale committed sidecars first: BuildSummaries keys
			// currency on the base file NAME, which regeneration reuses.
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), summary.Suffix) || e.Name() == "manifest.json" {
					if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
						t.Fatal(err)
					}
				}
			}
			if n, err := sch.BuildSummaries(dir, summary.Config{}); err != nil || n == 0 {
				t.Fatalf("%s: BuildSummaries = (%d, %v)", dir, n, err)
			}
		}
		meta, err := storage.ReadMetadata(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < meta.NumPartitions(); i++ {
			if _, ok := meta.SummaryFor(i); !ok {
				t.Fatalf("%s: partition %d has no sidecar (run with -update to regenerate)", dir, i)
			}
		}

		want := goldenWant(t, dir)
		var total int64
		for _, p := range want {
			total += int64(len(p))
		}

		res, ex := goldenApprox(t, dir, goldenFullWindow, stdata.ApproxRequest{Agg: summary.AggCount})
		if res.Fallback {
			t.Fatalf("%s: fell back to scan with sidecars committed", dir)
		}
		if !res.Exact || res.CountLo != total || res.CountHi != total {
			t.Fatalf("%s: full-domain count [%d,%d] exact=%v, want exactly %d",
				dir, res.CountLo, res.CountHi, res.Exact, total)
		}
		if ex.Approx == nil || ex.Approx.Fallback {
			t.Fatalf("%s: explain approx section = %+v", dir, ex.Approx)
		}

		wb := goldenHalfWindow.Box()
		var exact int64
		for _, p := range want {
			for _, e := range p {
				if e.Box().Intersects(wb) {
					exact++
				}
			}
		}
		res, _ = goldenApprox(t, dir, goldenHalfWindow, stdata.ApproxRequest{Agg: summary.AggCount})
		if res.Fallback {
			t.Fatalf("%s: fell back to scan with sidecars committed", dir)
		}
		if exact < res.CountLo || exact > res.CountHi {
			t.Fatalf("%s: exact %d outside committed envelope [%d,%d]",
				dir, exact, res.CountLo, res.CountHi)
		}
	}
}

// TestGoldenApproxCrossGeneration: the same logical dataset answers the
// same approximate envelope from every generation's committed sidecars
// wherever the block structure cannot differ — the full domain (all blocks
// certain, so the envelope degenerates to the exact count) across the
// migrated v1 and v2 and the v3, and the boundary window between the
// migrated v2 and a v3 store written fresh from its records in its order
// and block size, so with its per-block sketch structure.
func TestGoldenApproxCrossGeneration(t *testing.T) {
	goldenDir, goldenV2Dir := goldenV1MigratedDir, goldenV2MigratedDir
	fresh := t.TempDir()
	if _, err := storage.Write(fresh, stdata.EventRecC, goldenWant(t, goldenV2Dir), stdata.EventRec.Box,
		storage.WriteOptions{Name: "fresh", BlockRecords: 16}); err != nil {
		t.Fatal(err)
	}
	sch, _ := stdata.Lookup("nyc")
	if _, err := sch.BuildSummaries(fresh, summary.Config{}); err != nil {
		t.Fatal(err)
	}
	full := map[string]*summary.Result{}
	half := map[string]*summary.Result{}
	for _, dir := range []string{goldenDir, goldenV2Dir, goldenV3Dir, fresh} {
		full[dir], _ = goldenApprox(t, dir, goldenFullWindow, stdata.ApproxRequest{Agg: summary.AggCount})
		half[dir], _ = goldenApprox(t, dir, goldenHalfWindow, stdata.ApproxRequest{Agg: summary.AggCount})
	}
	for _, dir := range []string{goldenV2Dir, goldenV3Dir} {
		if full[dir].CountLo != full[goldenDir].CountLo || full[dir].CountHi != full[goldenDir].CountHi {
			t.Fatalf("full-domain envelope differs: %s [%d,%d] vs v1 [%d,%d]",
				dir, full[dir].CountLo, full[dir].CountHi,
				full[goldenDir].CountLo, full[goldenDir].CountHi)
		}
	}
	v2, v3 := half[goldenV2Dir], half[fresh]
	if v2.CountLo != v3.CountLo || v2.CountHi != v3.CountHi {
		t.Fatalf("boundary envelope differs across same-block-layout generations: v2 [%d,%d], v3 [%d,%d]",
			v2.CountLo, v2.CountHi, v3.CountLo, v3.CountHi)
	}
	// Migrated v1 has one block per partition (a v1 dataset records no
	// block size, so its rewrites took DefaultBlockRecords), so its
	// boundary envelope may be wider — but never narrower than what finer
	// blocks certify.
	v1 := half[goldenDir]
	if v1.CountLo > v2.CountLo || v1.CountHi < v2.CountHi {
		t.Fatalf("v1 envelope [%d,%d] narrower than blocked [%d,%d]",
			v1.CountLo, v1.CountHi, v2.CountLo, v2.CountHi)
	}
}

// TestGoldenApproxFallbackWithoutSidecars: a dataset committed before the
// approximate tier existed (no manifest, no sidecars) still serves
// approx=true — transparently, through the exact scan path, with the
// fallback flagged in both the envelope and the explain tree.
func TestGoldenApproxFallbackWithoutSidecars(t *testing.T) {
	dir := t.TempDir()
	ents, err := os.ReadDir(goldenV3Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), summary.Suffix) || e.Name() == "manifest.json" {
			continue // strip the approximate tier, keep the pre-tier dataset
		}
		b, err := os.ReadFile(filepath.Join(goldenV3Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want := goldenWant(t, goldenV3Dir)
	var total int64
	for _, p := range want {
		total += int64(len(p))
	}
	res, ex := goldenApprox(t, dir, goldenFullWindow, stdata.ApproxRequest{Agg: summary.AggCount})
	if !res.Fallback || !res.Exact || res.Bound != 0 {
		t.Fatalf("want flagged exact fallback, got fallback=%v exact=%v bound=%v",
			res.Fallback, res.Exact, res.Bound)
	}
	if res.CountLo != total || res.CountHi != total || res.ScannedRecords == 0 {
		t.Fatalf("fallback count [%d,%d] (scanned %d), want exactly %d",
			res.CountLo, res.CountHi, res.ScannedRecords, total)
	}
	for _, p := range res.Parts {
		if p.Source != "scan" {
			t.Fatalf("fallback partition %d source %q, want scan", p.ID, p.Source)
		}
	}
	if ex.Approx == nil || !ex.Approx.Fallback {
		t.Fatalf("explain should flag the fallback, got %+v", ex.Approx)
	}
}
