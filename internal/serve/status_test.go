package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/summary"
)

// TestStatusWall runs every request kind — /query exact and approx,
// /subquery exact and approx — against every refusal the pipeline owns,
// so a branch dropped from one kind fails here. Admission is driven
// deterministically by holding the only execution slot from the test.
func TestStatusWall(t *testing.T) {
	ctx := engine.New(engine.Config{Slots: 2})
	sch, _ := stdata.Lookup("nyc")
	dir := t.TempDir()
	meta, err := sch.Ingest(ctx, datagen.NYC(1500, 7), dir, sch.DefaultPlanner(4, 2),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	newServer := func(cfg Config) *Server {
		cfg.Ctx = ctx
		srv := NewServer(cfg)
		if err := srv.AddDataset("nyc", "nyc", dir); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	open := newServer(Config{})
	// busy sheds every arrival: one slot, no queue.
	busy := newServer(Config{MaxInFlight: 1, MaxQueue: -1})
	// slow queues one arrival, which times out waiting for the slot.
	slow := newServer(Config{MaxInFlight: 1, MaxQueue: 1, Timeout: 20 * time.Millisecond})
	for _, srv := range []*Server{busy, slow} {
		release, err := srv.adm.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(release)
	}

	endpoints := []struct {
		name, path string
		approx     bool
	}{
		{"query", "/query", false},
		{"query-approx", "/query", true},
		{"subquery", "/subquery", false},
		{"subquery-approx", "/subquery", true},
	}
	rows := []struct {
		name   string
		srv    *Server
		edit   func(*SubQueryRequest)
		body   string // raw body overriding the request
		trail  string // bytes after the request's JSON value
		extra  string // members spliced in before the request's first
		errHas string // a refusal's error must contain this
		drain  bool
		sub    bool // /subquery only
		approx bool // approx kinds only
		want   int
	}{
		{name: "ok", srv: open, want: http.StatusOK},
		{name: "unknown-dataset", srv: open, edit: func(r *SubQueryRequest) { r.Dataset = "nope" }, want: http.StatusNotFound},
		{name: "bad-body", srv: open, body: "{", want: http.StatusBadRequest},
		{name: "trailing-bytes", srv: open, trail: ` garbage`, want: http.StatusBadRequest},
		{name: "trailing-value", srv: open, trail: `{"dataset":"zzz"}`, want: http.StatusBadRequest},
		{name: "trailing-space", srv: open, trail: " \r\n\t", want: http.StatusOK},
		{name: "unknown-field", srv: open, extra: `"min_x":-74.0,`, errHas: `"min_x"`, want: http.StatusBadRequest},
		{name: "draining", srv: open, drain: true, want: http.StatusServiceUnavailable},
		{name: "queue-full", srv: busy, want: http.StatusTooManyRequests},
		{name: "deadline", srv: slow, want: http.StatusGatewayTimeout},
		{name: "fence", srv: open, sub: true, edit: func(r *SubQueryRequest) { r.Gen++ }, want: http.StatusConflict},
		{name: "approx-spec", srv: open, approx: true, edit: func(r *SubQueryRequest) { r.Agg = "bogus" }, want: http.StatusBadRequest},
	}
	urls := map[*Server]string{}
	for _, srv := range []*Server{open, busy, slow} {
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[srv] = ts.URL
	}

	for _, ep := range endpoints {
		for _, row := range rows {
			if (row.sub && ep.path != "/subquery") || (row.approx && !ep.approx) {
				continue
			}
			t.Run(ep.name+"/"+row.name, func(t *testing.T) {
				req := SubQueryRequest{
					QueryRequest: nycWindow(),
					Partitions:   []int{0},
					Gen:          meta.Generation,
					Count:        meta.TotalCount,
				}
				req.NoCache = true
				if ep.approx {
					req.Records = false
					req.Approx, req.Agg = true, summary.AggCount
				}
				if row.edit != nil {
					row.edit(&req)
				}
				body := row.body
				if body == "" {
					// /query takes no partition list or fence.
					var b []byte
					if ep.path == "/query" {
						b, _ = json.Marshal(req.QueryRequest)
					} else {
						b, _ = json.Marshal(req)
					}
					body = "{" + row.extra + string(b[1:]) + row.trail
				}
				if row.drain {
					row.srv.SetDraining(true)
					defer row.srv.SetDraining(false)
				}
				resp, err := http.Post(urls[row.srv]+ep.path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != row.want {
					var e errorResponse
					_ = json.NewDecoder(resp.Body).Decode(&e)
					t.Fatalf("status %d (%s), want %d", resp.StatusCode, e.Error, row.want)
				}
				if row.want != http.StatusOK {
					var e errorResponse
					if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
						t.Fatalf("status %d without an error body (%v)", resp.StatusCode, err)
					}
					if !strings.Contains(e.Error, row.errHas) {
						t.Fatalf("error %q does not name %s", e.Error, row.errHas)
					}
				}
			})
		}
	}
	// Only a server fault counts as a query error: every refusal above is
	// the client's or the load's, never the daemon's.
	for _, srv := range []*Server{open, busy, slow} {
		if n := srv.Stats().QueryErrors; n != 0 {
			t.Errorf("query_errors = %d after refusals only", n)
		}
	}
}

// TestOversizedBody413 pins the request-body bound on every endpoint that
// decodes one: a well-formed body past MaxBodyBytes answers 413, however
// many bytes the client chose to send.
func TestOversizedBody413(t *testing.T) {
	srv, _, _ := newSubqueryServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := []byte(`{"dataset":"nyc","pad":"` + strings.Repeat("x", MaxBodyBytes) + `"}`)
	for _, path := range []string{"/query", "/subquery", "/subscribe"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body answered %d, want 413", path, resp.StatusCode)
		}
	}
}
