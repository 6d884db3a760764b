package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/subscribe"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

// wireRecords are n records as the schema encoder writes them, with HTML
// and control characters in their strings.
func wireRecords(t *testing.T, n int) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, n)
	for i := range out {
		b, err := json.Marshal(stdata.EventRec{ID: int64(i), Loc: geom.Pt(-73.9+float64(i)*1e-7, 40.7),
			Time: 1356998400 + int64(i), Aux: fmt.Sprintf("<b>%d</b> & \x01", i)})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// checkReply asserts writeReply(encode) answers exactly what WriteJSON(v)
// does: status, content type and body bytes.
func checkReply(t *testing.T, name string, v any, encode func([]byte) ([]byte, error)) {
	t.Helper()
	want := httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, v)
	if want.Code != http.StatusOK {
		t.Fatalf("%s: WriteJSON answered %d: %s", name, want.Code, want.Body.Bytes())
	}
	got := httptest.NewRecorder()
	var f Front
	f.writeReply(got, jsonReply, encode)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%s: status %d %q, WriteJSON %d %q", name, got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s:\n writeReply %s\n WriteJSON  %s", name, got.Body.Bytes(), want.Body.Bytes())
	}
}

// TestReplyWriterMatchesWriteJSON holds the splicing reply writer to
// WriteJSON byte for byte, over every combination of the optional parts of
// a /query reply — explain, approx, flat records, per-partition chunks
// (nil, empty, empty chunks, chunks a limit cut) — and over real daemon
// replies at several limits. A /subquery reply is a frame, held to its
// round trip instead (TestSubQueryFrameRoundTrip).
func TestReplyWriterMatchesWriteJSON(t *testing.T) {
	recs := wireRecords(t, 9)
	explain := &trace.Explain{TotalPartitions: 16, ReadPartitions: 3, RecordsSelected: 9}
	approx := &summary.Result{Agg: "count", Estimate: 9.5, Bound: 1e-7, CountLo: 9, CountHi: 10,
		Cells: []summary.Cell{{}}}
	partSets := map[string][]stdata.PartResult{
		"nil":   nil,
		"empty": {},
		"cut": {
			{ID: 0, Selected: 4, Records: recs[:4]},
			{ID: 3, Selected: 0},
			{ID: 5, Selected: 7, Records: recs[4:6]}, // limit cut inside the chunk
			{ID: 6, Selected: 2},                     // past the limit
			{ID: 9, Selected: 1, Records: []json.RawMessage{}},
		},
		"one": {{ID: 2, Selected: 1, Records: recs[:1]}},
	}
	stats := selection.Stats{TotalPartitions: 16, LoadedPartitions: 3, SelectedRecords: 9}
	for mask := 0; mask < 8; mask++ {
		for _, flat := range [][]json.RawMessage{nil, {}, recs[:1], recs} {
			for pname, parts := range partSets {
				r := QueryResponse{Dataset: "nyc <&> \xe2\x80\xa8", Cache: "miss", ElapsedMS: 0.125,
					QueryResult: stdata.QueryResult{Stats: stats, Records: flat, Parts: parts}}
				if mask&1 != 0 {
					r.Explain = explain
				}
				if mask&2 != 0 {
					r.Approx = approx
				}
				if mask&4 != 0 {
					r.ElapsedMS = 1234567.5
				}
				checkReply(t, fmt.Sprintf("query mask=%d flat=%d parts=%s", mask, len(flat), pname), r, r.appendJSON)
			}
		}
	}

	srv, _, _ := newSubqueryServer(t)
	defer srv.Close()
	ctx := context.Background()
	for _, limit := range []int{0, 1, 7, 50} {
		for _, explain := range []bool{false, true} {
			req := nycWindow()
			req.Limit, req.Explain = limit, explain
			resp, err := srv.query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Records) == 0 {
				t.Fatal("window selects no records")
			}
			checkReply(t, fmt.Sprintf("daemon query limit=%d explain=%t", limit, explain), resp, resp.appendJSON)
		}
	}
}

// TestReplyEncodeFailureAnswers500 pins that a reply which cannot be
// encoded (a NaN in the approx envelope) answers 500 with an error body —
// from WriteJSON and from the splicing writer behind /query, which also
// counts it in query_errors — instead of 200 with an empty body.
func TestReplyEncodeFailureAnswers500(t *testing.T) {
	bad := QueryResponse{Approx: &summary.Result{Estimate: math.NaN()}}
	check := func(name string, rr *httptest.ResponseRecorder) {
		t.Helper()
		var body errorResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &body); rr.Code != http.StatusInternalServerError ||
			err != nil || !strings.Contains(body.Error, "unsupported value: NaN") {
			t.Fatalf("%s: status %d body %q, want 500 with the encode error", name, rr.Code, rr.Body.String())
		}
	}

	rr := httptest.NewRecorder()
	WriteJSON(rr, http.StatusOK, bad)
	check("WriteJSON", rr)

	var f Front
	h := f.QueryHandler(func(context.Context, QueryRequest) (QueryResponse, error) { return bad, nil })
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"dataset":"nyc"}`)))
	check("QueryHandler", rr)
	if queries, errs := f.Counts(); queries != 1 || errs != 1 {
		t.Fatalf("queries %d, query_errors %d; want 1 and 1", queries, errs)
	}
}

// TestWriteSSEMatchesMarshal holds a pushed frame's data line to
// json.Marshal of the update — HTML-escaped, unlike a reply — for every
// update kind with zero, one and many records and chunks.
func TestWriteSSEMatchesMarshal(t *testing.T) {
	recs := wireRecords(t, 5)
	for _, u := range []subscribe.Update{
		{Kind: subscribe.KindInit, Dataset: "d<&>", Generation: 3},
		{Kind: subscribe.KindInit, Dataset: "d<&>", Generation: 3, NextSeq: 12, Parts: []stdata.PartResult{
			{ID: 0, Selected: 3, Records: recs[:3]}, {ID: 1, Selected: 0}, {ID: 4, Selected: 9, Records: recs[3:]}}},
		{Kind: subscribe.KindBatch, Dataset: "d<&>", Generation: 4, Seq: 12, Partition: 1, Records: recs[:1]},
		{Kind: subscribe.KindBatch, Dataset: "d<&>", Generation: 4, Seq: 13, Partition: 2, Records: recs},
		{Kind: subscribe.KindBatch, Dataset: "d", Records: []json.RawMessage{}, Parts: []stdata.PartResult{}},
		{Kind: subscribe.KindResync, Dataset: "\x00\xff\xe2\x80\xa9", Generation: 9, NextSeq: 20, Dropped: 6,
			Parts: []stdata.PartResult{{ID: 7, Selected: 1, Records: recs[2:3]}}},
	} {
		data, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("event: %s\nid: %d:%d\ndata: %s\n\n", u.Kind, u.Generation, u.Seq, data)
		var got bytes.Buffer
		if err := writeSSE(&got, u); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("writeSSE:\n%s\njson.Marshal:\n%s", got.String(), want)
		}
	}
	if err := writeSSE(failWriter{}, subscribe.Update{Kind: subscribe.KindInit}); err == nil {
		t.Fatal("writeSSE hid a write error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body, so a writeReply through it allocates only what writeReply does.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestWriteReplyAllocs pins that a reply's body comes from the pool: one
// writeReply of a 1000-record QueryResponse makes 3 allocations of 176
// bytes in all (the Content-Type header value and the stats encoder); a
// body allocated per reply makes 4 of 123 KB. The byte ceiling, an eighth
// of the body, leaves room for a garbage collection emptying the pool once
// in the run.
func TestWriteReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("a race-enabled sync.Pool drops a quarter of what is put back")
	}
	const replyAllocCeiling, runs = 4, 100
	recs := wireRecords(t, 1000)
	r := QueryResponse{Dataset: "nyc", Cache: "miss", ElapsedMS: 1.25,
		QueryResult: stdata.QueryResult{Stats: selection.Stats{TotalPartitions: 16, LoadedPartitions: 3, SelectedRecords: 1000}, Records: recs}}
	body, err := r.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var f Front
	w := discardWriter{h: http.Header{}}
	f.writeReply(w, jsonReply, r.appendJSON)
	if allocs := testing.AllocsPerRun(runs, func() { f.writeReply(w, jsonReply, r.appendJSON) }); allocs > replyAllocCeiling {
		t.Errorf("writeReply: %.0f allocs per reply, ceiling %d", allocs, replyAllocCeiling)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f.writeReply(w, jsonReply, r.appendJSON)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > uint64(len(body)/8) {
		t.Errorf("writeReply: %d bytes per reply of a %d-byte body; the body is not pooled", b, len(body))
	}
}
