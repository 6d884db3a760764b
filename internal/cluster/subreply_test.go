package cluster

import (
	"context"
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
	"unsafe"

	"st4ml/internal/engine"
	"st4ml/internal/serve"
)

// TestRouterFailsOverOnBadReplyBody pins the router's reading of a 200
// sub-reply whose body is broken: a truncated reply, invalid JSON, a
// Content-Length past the bytes sent, and a terabyte Content-Length over a
// ten-byte body. Each is a failed attempt counted against the replica that
// sent it: the router fails over to the healthy replica and answers
// byte-identically, and answers 502 when every replica is bad. It never
// sizes a buffer from the header.
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

// TestRouterReusesShardConnections pins that the router reads every
// sub-reply to its end, so the connection goes back to the keep-alive
// pool: 200 queries from two concurrent callers over two shards open no
// more connections than shards × callers.
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
	r := tc.router(t, shards, Config{Shards: m, Client: &http.Client{Transport: &http.Transport{}}})

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

// TestRouterCachedReplyPinsOnlyKeptRecords pins that a merged reply the
// cache keeps holds no more bytes than ResidentBytes charges for it. With
// no limit the records keep aliasing the shards' reply bodies, which they
// all but fill; a limit that leaves most records behind moves the kept
// ones into one buffer of their exact size.
func TestRouterCachedReplyPinsOnlyKeptRecords(t *testing.T) {
	tc := newTestCluster(t, 2000, 2)
	r := tc.router(t, 2, Config{})
	contiguous := func(recs []json.RawMessage) bool {
		for k := 1; k < len(recs); k++ {
			prev := unsafe.Pointer(unsafe.SliceData(recs[k-1]))
			if unsafe.Add(prev, len(recs[k-1])) != unsafe.Pointer(unsafe.SliceData(recs[k])) {
				return false
			}
		}
		return true
	}
	for _, limit := range []int{0, 5} {
		q := seededWindows(3, 4)[3] // full extent: both shards
		q.NoCache, q.Limit = false, limit
		resp, err := r.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswer(t, fmt.Sprintf("limit=%d", limit), resp.QueryResult, tc.singleNode(t, q))
		if got, want := contiguous(resp.Records), limit > 0; got != want {
			t.Fatalf("limit=%d: records in one buffer %t, want %t", limit, got, want)
		}
	}
}
