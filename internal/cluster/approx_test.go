package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

// approxSingle asks the baseline daemon for the reference approx envelope.
func (tc *testCluster) approxSingle(t *testing.T, req serve.QueryRequest) *summary.Result {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(tc.single.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node approx status %d", resp.StatusCode)
	}
	var out serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Approx == nil {
		t.Fatal("single node returned no approx envelope")
	}
	return out.Approx
}

// routeApprox is routeQuery for approx requests: the finalized envelope,
// cache disposition, explain, status and error.
func routeApprox(r *Router, q serve.QueryRequest) (*summary.Result, string, *trace.Explain, int, error) {
	resp, err := r.Query(context.Background(), q)
	return resp.Approx, resp.Cache, resp.Explain, serve.StatusOf(err), err
}

// TestRouterApproxMatchesSingleNode: across shard counts and aggregates, a
// routed approximate query merges shard partials into the same envelope a
// single node produces — integer envelopes identical, float estimates
// within merge-order tolerance — and the envelope contains the exact
// answer recomputed from the seeded corpus.
func TestRouterApproxMatchesSingleNode(t *testing.T) {
	const records = 4000
	tc := newTestCluster(t, records, 3)
	corpus := datagen.NYC(records, 7)

	// Pre-summarization: the routed fallback path answers exactly.
	r0 := tc.router(t, 2, Config{})
	preReq := seededWindows(9, 1)[0]
	preReq.Records = false
	preReq.Approx = true
	pre, _, _, status, err := routeApprox(r0, preReq)
	if err != nil {
		t.Fatalf("pre-summary approx: status %d: %v", status, err)
	}
	if !pre.Fallback || !pre.Exact {
		t.Fatalf("pre-summary approx should be a flagged exact fallback, got %+v", pre)
	}

	sch, _ := stdata.Lookup("nyc")
	if n, err := sch.BuildSummaries(tc.dir, summary.Config{}); err != nil || n == 0 {
		t.Fatalf("BuildSummaries = (%d, %v)", n, err)
	}

	exactFor := func(req serve.QueryRequest) (int64, []float64) {
		wb := req.Window().Box()
		var n int64
		var vals []float64
		for _, e := range corpus {
			if e.Box().Intersects(wb) {
				n++
				vals = append(vals, float64(e.Time))
			}
		}
		return n, vals
	}
	exactQuantile := func(vals []float64, q float64) float64 {
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		r := int(math.Ceil(q * float64(len(s))))
		if r < 1 {
			r = 1
		}
		return s[r-1]
	}

	const eps = 1e-6
	for _, k := range []int{1, 2, 3} {
		r := tc.router(t, k, Config{})
		for wi, base := range seededWindows(17, 4) {
			for _, agg := range []string{summary.AggCount, summary.AggHist, summary.AggQuantile} {
				req := base
				req.Records, req.Limit = false, 0
				req.Approx, req.Agg, req.Q, req.Res = true, agg, 0.9, 2
				single := tc.approxSingle(t, req)
				routed, _, _, status, err := routeApprox(r, req)
				if err != nil {
					t.Fatalf("k=%d w%d %s: status %d: %v", k, wi, agg, status, err)
				}
				if routed.CountLo != single.CountLo || routed.CountHi != single.CountHi {
					t.Fatalf("k=%d w%d %s: routed count [%d,%d], single [%d,%d]",
						k, wi, agg, routed.CountLo, routed.CountHi, single.CountLo, single.CountHi)
				}
				if routed.SummaryBlocks != single.SummaryBlocks ||
					routed.ScannedBlocks != single.ScannedBlocks ||
					routed.ScannedRecords != single.ScannedRecords ||
					len(routed.Parts) != len(single.Parts) ||
					routed.Fallback != single.Fallback {
					t.Fatalf("k=%d w%d %s: provenance diverges:\n routed %+v\n single %+v",
						k, wi, agg, routed, single)
				}
				exact, vals := exactFor(req)
				if exact < routed.CountLo || exact > routed.CountHi {
					t.Fatalf("k=%d w%d %s: exact %d outside [%d,%d]",
						k, wi, agg, exact, routed.CountLo, routed.CountHi)
				}
				switch agg {
				case summary.AggCount:
					if math.Abs(routed.Estimate-single.Estimate) > eps*(1+math.Abs(single.Estimate)) {
						t.Fatalf("k=%d w%d: routed estimate %v, single %v", k, wi, routed.Estimate, single.Estimate)
					}
				case summary.AggHist:
					if len(routed.Cells) != len(single.Cells) {
						t.Fatalf("k=%d w%d: %d cells vs %d", k, wi, len(routed.Cells), len(single.Cells))
					}
					for i := range routed.Cells {
						rc, sc := routed.Cells[i], single.Cells[i]
						if rc.Lo != sc.Lo || rc.Hi != sc.Hi {
							t.Fatalf("k=%d w%d cell %d: routed [%d,%d], single [%d,%d]",
								k, wi, i, rc.Lo, rc.Hi, sc.Lo, sc.Hi)
						}
					}
				case summary.AggQuantile:
					if exact == 0 {
						break
					}
					ex := exactQuantile(vals, 0.9)
					if ex < routed.Estimate-routed.Bound-eps || ex > routed.Estimate+routed.Bound+eps {
						t.Fatalf("k=%d w%d: exact quantile %v outside %v±%v",
							k, wi, ex, routed.Estimate, routed.Bound)
					}
				}
			}
		}
	}
}
