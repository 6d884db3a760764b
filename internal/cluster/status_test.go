package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/serve"
	"st4ml/internal/stdata"
	"st4ml/internal/summary"
)

// TestBadApproxSameOnEveryTier posts the same three malformed approx
// requests — an unknown aggregate, q outside [0,1], and a quantile over
// the value-less osm schema (which only a shard can detect) — to a single
// daemon and to a 2-shard router. Both tiers must answer the same status
// (400) with the same error body, and neither counts a client's mistake
// as a server fault.
func TestBadApproxSameOnEveryTier(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("osm")
	dir := t.TempDir()
	pois, _ := datagen.OSM(1200, 4, 3)
	if _, err := sch.Ingest(ctx, pois, dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "osm", SampleFrac: 0.2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var daemons []*serve.Server
	newDaemon := func(name string) string {
		srv := serve.NewServer(serve.Config{Ctx: ctx, ShardName: name})
		t.Cleanup(srv.Close)
		if err := srv.AddDataset("osm", "osm", dir); err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, srv)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	single := newDaemon("")
	r, err := NewRouter(Config{Shards: ShardMap{Shards: []Shard{
		{Name: "s0", Replicas: []string{newDaemon("s0")}},
		{Name: "s1", Replicas: []string{newDaemon("s1")}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddDataset("osm", "osm", dir); err != nil {
		t.Fatal(err)
	}
	routed := httptest.NewServer(r.Handler())
	defer routed.Close()

	post := func(url string, req serve.QueryRequest) (int, string) {
		b, _ := json.Marshal(req)
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	ext := datagen.WorldExtent
	base := serve.QueryRequest{Dataset: "osm", Approx: true, NoCache: true,
		MinX: ext.MinX, MinY: ext.MinY, MaxX: ext.MaxX, MaxY: ext.MaxY, TStart: -1 << 62, TEnd: 1 << 62}
	if code, body := post(routed.URL, base); code != http.StatusOK {
		t.Fatalf("valid approx count through the router: %d %s", code, body)
	}
	rpcs := r.Stats().RPCs
	for _, bad := range []struct {
		name string
		agg  string
		q    float64
	}{
		{"unknown-agg", "bogus", 0},
		{"q-out-of-range", summary.AggQuantile, 2},
		{"value-less-quantile", summary.AggQuantile, 0.5},
	} {
		req := base
		req.Agg, req.Q = bad.agg, bad.q
		sc, sb := post(single, req)
		rc, rb := post(routed.URL, req)
		if sc != http.StatusBadRequest || rc != sc || rb != sb {
			t.Errorf("%s: single %d %s, router %d %s", bad.name, sc, strings.TrimSpace(sb), rc, strings.TrimSpace(rb))
		}
	}
	if r.Stats().RPCs == rpcs {
		t.Error("the value-less quantile never reached a shard")
	}
	for _, srv := range daemons {
		if n := srv.Stats().QueryErrors; n != 0 {
			t.Errorf("daemon %q counted %d bad requests as query errors", srv.Stats().Shard, n)
		}
	}
	if n := r.Stats().QueryErrors; n != 0 {
		t.Errorf("router counted %d bad requests as query errors", n)
	}
	// A shard's 400 is permanent: no replica would answer it differently.
	if st := r.Stats(); st.Failovers != 0 {
		t.Errorf("a shard 400 failed over %d times", st.Failovers)
	}
}

// TestRouterOversizedBody413 pins the router's request-body bound: the
// same 413 a single daemon answers.
func TestRouterOversizedBody413(t *testing.T) {
	tc := newTestCluster(t, 200, 1)
	ts := httptest.NewServer(tc.router(t, 1, Config{}).Handler())
	defer ts.Close()
	body := `{"dataset":"nyc","pad":"` + strings.Repeat("x", serve.MaxBodyBytes) + `"}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d, want 413", resp.StatusCode)
	}
}

// TestRouterTrailingBytes400 pins that the router, like a daemon, answers
// 400 to a request body with anything but whitespace after its JSON value.
func TestRouterTrailingBytes400(t *testing.T) {
	tc := newTestCluster(t, 200, 1)
	ts := httptest.NewServer(tc.router(t, 1, Config{}).Handler())
	defer ts.Close()
	for trail, want := range map[string]int{
		" garbage":          http.StatusBadRequest,
		`{"dataset":"zzz"}`: http.StatusBadRequest,
		"}":                 http.StatusBadRequest,
		" \n":               http.StatusOK,
	} {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"dataset":"nyc"}`+trail))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body followed by %q answered %d, want %d", trail, resp.StatusCode, want)
		}
	}
}

// TestRouterUnknownField400 pins that the router, like a daemon, refuses a
// request naming a field the protocol does not have, and says which,
// instead of answering a zero window with an empty 200.
func TestRouterUnknownField400(t *testing.T) {
	tc := newTestCluster(t, 200, 1)
	ts := httptest.NewServer(tc.router(t, 1, Config{}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"dataset":"nyc","min_x":-74.0,"records":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"min_x"`) {
		t.Fatalf("unknown field answered %d %q, want 400 naming \"min_x\"", resp.StatusCode, e.Error)
	}
}
