package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"st4ml/internal/engine"
	"st4ml/internal/serve"
)

// TestRouterFailsOverOnBadReplyBody pins the router's reading of a 200
// sub-reply whose body is broken: a truncated reply, invalid JSON, a
// Content-Length past the bytes sent, a terabyte Content-Length over a
// ten-byte body, a real frame with one bit of a record flipped, and the
// JSON reply a shard older than the router writes. Each is a failed
// attempt counted against the replica that sent it: the router fails over
// to the healthy replica and answers byte-identically, and answers 502
// when every replica is bad. It never sizes a buffer from the header.
func TestRouterFailsOverOnBadReplyBody(t *testing.T) {
	tc := newTestCluster(t, 2000, 1)
	// realReply is the healthy shard's answer to a sub-query.
	realReply := func(r *http.Request) []byte {
		resp, err := http.Post(tc.shards[0].URL+"/subquery", "application/json", r.Body)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	bodies := map[string]func(w http.ResponseWriter, r *http.Request){
		"truncated": func(w http.ResponseWriter, r *http.Request) {
			b := realReply(r)
			_, _ = w.Write(b[:len(b)/2])
		},
		"invalid": func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte(`{"shard":"s0","parts":[{"id":1,"records":[{"ID":1,}]}]}`))
		},
		"short": func(w http.ResponseWriter, r *http.Request) {
			b := realReply(r)
			w.Header().Set("Content-Length", strconv.Itoa(len(b)+100))
			_, _ = w.Write(b)
		},
		"huge": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "1099511627776")
			_, _ = w.Write([]byte(`{"parts":[`))
		},
		"bitflip": func(w http.ResponseWriter, r *http.Request) {
			b := realReply(r)
			b[len(b)-1] ^= 0x10 // a record byte, which the router does not look at
			_, _ = w.Write(b)
		},
		"json": func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(jsonSubReply(t, realReply(r)))
		},
	}
	q := seededWindows(5, 4)[3] // full extent
	want := tc.singleNode(t, q)
	for name, handler := range bodies {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			handler(w, r)
		}))
		defer bad.Close()

		r := tc.router(t, 1, Config{Shards: ShardMap{Shards: []Shard{
			{Name: "s0", Replicas: []string{bad.URL, tc.shards[0].URL}},
		}}})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, _, status, err := routeQuery(r, q)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: query failed: %v (status %d)", name, err, status)
		}
		assertSameAnswer(t, name, got, want)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<30 {
			t.Fatalf("%s: one query allocated %d bytes", name, grew)
		}
		st := r.ShardStatuses()[0]
		if st.Replicas[0].Errors != 1 || st.Replicas[1].Errors != 0 || r.Stats().Failovers != 1 {
			t.Fatalf("%s: replica errors %d/%d, failovers %d; want 1/0 and 1", name,
				st.Replicas[0].Errors, st.Replicas[1].Errors, r.Stats().Failovers)
		}

		allBad := tc.router(t, 1, Config{Shards: ShardMap{Shards: []Shard{
			{Name: "s0", Replicas: []string{bad.URL, bad.URL}},
		}}})
		if _, _, _, status, err := routeQuery(allBad, q); status != http.StatusBadGateway {
			t.Fatalf("%s: every replica bad: status %d (%v), want 502", name, status, err)
		}
		if st := allBad.ShardStatuses()[0]; st.Replicas[0].Errors+st.Replicas[1].Errors == 0 {
			t.Fatalf("%s: no errors counted on the bad replicas", name)
		}
	}
}

// jsonSubReply is frame's reply in the JSON form /subquery answered with
// before the frame: the envelope's fields and a parts array.
func jsonSubReply(t *testing.T, frame []byte) []byte {
	resp, err := serve.ParseSubQueryFrame(frame)
	if err != nil {
		t.Error(err)
		return nil
	}
	env, err := json.Marshal(resp)
	if err != nil {
		t.Error(err)
		return nil
	}
	parts, err := json.Marshal(resp.Parts)
	if err != nil {
		t.Error(err)
		return nil
	}
	return append(append(append(env[:len(env)-1], `,"parts":`...), parts...), '}')
}

// TestRouterReusesShardConnections pins that the router reads every
// sub-reply to its end, so the connection goes back to the keep-alive
// pool: 200 queries from two concurrent callers over two shards open no
// more connections than shards × callers. The transport caps connections
// per shard at the caller count: net/http returns an idle connection to
// the pool on another goroutine, and without the cap a caller that asks
// before the hand-back lands dials a spare one, so the bound failed under
// CPU contention with nothing dropped. A router that drops connections
// still needs a fresh one per query, which the cap cannot hide: it serves
// them one at a time, and the count of dials past the bound fails.
func TestRouterReusesShardConnections(t *testing.T) {
	tc := newTestCluster(t, 2000, 0)
	const shards, callers, queries = 2, 2, 200
	var conns atomic.Int64
	m := ShardMap{}
	for i := 0; i < shards; i++ {
		srv := serve.NewServer(serve.Config{Ctx: engine.New(engine.Config{Slots: 2}), ShardName: fmt.Sprintf("s%d", i)})
		if err := srv.AddDataset("nyc", "nyc", tc.dir); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				conns.Add(1)
			}
		}
		ts.Start()
		defer ts.Close()
		m.Shards = append(m.Shards, Shard{Name: fmt.Sprintf("s%d", i), Replicas: []string{ts.URL}})
	}
	r := tc.router(t, shards, Config{Shards: m, Client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: callers}}})

	windows := seededWindows(13, 8)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < queries; i += callers {
				if _, _, _, _, err := routeQuery(r, windows[i%len(windows)]); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := r.Stats().RPCs; got < queries {
		t.Fatalf("%d shard RPCs for %d queries", got, queries)
	}
	if n := conns.Load(); n > shards*callers {
		t.Fatalf("%d shard connections for %d queries, want <= %d", n, queries, shards*callers)
	}
}

// TestRouterDefaultClientPoolsShardConnections pins the default client a
// router builds when Config.Client is nil: 8 concurrent callers over two
// shards must find their connections in the keep-alive pool again. A
// transport that keeps only net/http's default 2 idle connections per
// host closes the rest after every burst and dials them again, once per
// query past the second.
func TestRouterDefaultClientPoolsShardConnections(t *testing.T) {
	tc := newTestCluster(t, 2000, 0)
	const shards, callers, queries = 2, 8, 400
	var conns atomic.Int64
	m := ShardMap{}
	for i := 0; i < shards; i++ {
		srv := serve.NewServer(serve.Config{Ctx: engine.New(engine.Config{Slots: 2}), ShardName: fmt.Sprintf("s%d", i)})
		if err := srv.AddDataset("nyc", "nyc", tc.dir); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
			if state == http.StateNew {
				conns.Add(1)
			}
		}
		ts.Start()
		defer ts.Close()
		m.Shards = append(m.Shards, Shard{Name: fmt.Sprintf("s%d", i), Replicas: []string{ts.URL}})
	}
	r := tc.router(t, shards, Config{Shards: m})
	defer r.client.CloseIdleConnections()

	windows := seededWindows(17, 8)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < queries; i += callers {
				if _, _, _, _, err := routeQuery(r, windows[i%len(windows)]); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each caller holds at most one connection per shard at a time; a
	// connection whose hand-back to the pool races the caller's next
	// request can add a spare, so the bound allows twice that.
	if n := conns.Load(); n > 2*shards*callers {
		t.Fatalf("%d shard connections for %d queries from %d callers, want <= %d",
			n, queries, callers, 2*shards*callers)
	}
}
