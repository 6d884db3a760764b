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
	"reflect"
	"strings"
	"testing"

	"st4ml/internal/datagen"
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
	f.writeReply(got, encode)
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
// a /query and a /subquery reply — explain, approx, spans, flat records,
// per-partition chunks (nil, empty, empty chunks, chunks a limit cut) —
// and over real daemon replies at several limits.
func TestReplyWriterMatchesWriteJSON(t *testing.T) {
	recs := wireRecords(t, 9)
	explain := &trace.Explain{TotalPartitions: 16, ReadPartitions: 3, RecordsSelected: 9}
	approx := &summary.Result{Agg: "count", Estimate: 9.5, Bound: 1e-7, CountLo: 9, CountHi: 10,
		Cells: []summary.Cell{{}}}
	partial := &summary.Partial{CountLo: 1, CountHi: 2, CountEst: 1.5e21, CellEst: []float64{0.1, 2e-9}}
	spans := []trace.WireSpan{{ID: 1, Name: "query <&>", StartNS: 5, DurNS: 7,
		Attrs: []trace.WireAttr{{Key: "dataset", Str: "a&b"}}}}
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

				s := SubQueryResponse{Gen: int64(mask), Count: 4000, Cache: "hit", ElapsedMS: 3e-7, Parts: parts}
				if mask&1 != 0 {
					s.Shard = "s<1>"
				}
				if mask&2 != 0 {
					s.Approx = partial
				}
				if mask&4 != 0 {
					s.Spans = spans
				}
				checkReply(t, fmt.Sprintf("subquery mask=%d parts=%s", mask, pname), s, s.appendJSON)
			}
		}
	}

	srv, _, meta := newSubqueryServer(t)
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

			sub := SubQueryRequest{QueryRequest: req, Partitions: meta.Prune(req.Window().Space, req.Window().Time),
				Gen: meta.Generation, Count: meta.TotalCount}
			val, _, _, err := srv.execute(ctx, sub, true)
			if err != nil {
				t.Fatal(err)
			}
			s := val.(SubQueryResponse)
			checkReply(t, fmt.Sprintf("daemon subquery limit=%d", limit), s, s.appendJSON)
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

// schemaRecords are n records of each registered schema in their wire
// form (json.Marshal's bytes, which every schema's encoder reproduces),
// the nyc ones with HTML, quote, backslash, U+2028 and invalid UTF-8 in
// their strings.
func schemaRecords(t testing.TB, n int) map[string][]json.RawMessage {
	t.Helper()
	events := datagen.NYC(n, 3)
	for i := range events {
		events[i].Aux = fmt.Sprintf("\"\\<%d>&\u2028\xff", i)
	}
	pois, _ := datagen.OSM(n, 1, 3)
	recs := map[string]any{
		"nyc":   events,
		"porto": datagen.Porto(n, 3),
		"air":   datagen.Air(n, 1, 1, 3600, 3)[:n],
		"osm":   pois,
	}
	out := map[string][]json.RawMessage{}
	for name, rs := range recs {
		v := reflect.ValueOf(rs)
		for i := 0; i < v.Len(); i++ {
			b, err := json.Marshal(v.Index(i).Interface())
			if err != nil {
				t.Fatal(err)
			}
			out[name] = append(out[name], b)
		}
	}
	return out
}

// cutParts spreads recs over chunks of the given sizes and caps them at
// limit across chunks, as a shard does (limit <= 0: no cap).
func cutParts(recs []json.RawMessage, sizes []int, limit int) []stdata.PartResult {
	parts := make([]stdata.PartResult, len(sizes))
	kept := 0
	for i, n := range sizes {
		parts[i] = stdata.PartResult{ID: 3 * i, Selected: int64(n)}
		if limit > 0 {
			n = min(n, limit-kept)
		}
		if n > 0 {
			parts[i].Records, recs = recs[:n:n], recs[n:]
			kept += n
		}
	}
	return parts
}

// checkParse holds ParseSubQueryResponse to json.Unmarshal on one body.
func checkParse(t *testing.T, label string, body []byte) {
	t.Helper()
	var want SubQueryResponse
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("%s: json.Unmarshal: %v", label, err)
	}
	got, err := ParseSubQueryResponse(body)
	if err != nil {
		t.Fatalf("%s: ParseSubQueryResponse: %v\n%.300s", label, err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: parsed\n %+v\njson.Unmarshal\n %+v", label, got, want)
	}
}

// TestParseSubQueryResponseMatchesDecode holds the router's sub-reply
// parser to json.Unmarshal over the replies a shard writes: appendJSON's
// for every schema, parts nil, empty and chunked at several limits, with
// and without an approx envelope and spans, and a test daemon's real
// /subquery replies.
func TestParseSubQueryResponseMatchesDecode(t *testing.T) {
	partial := &summary.Partial{CountLo: 1, CountHi: 2, CountEst: 1.5e21, CellEst: []float64{0.1, 2e-9},
		Parts: []summary.PartProvenance{{}}}
	spans := []trace.WireSpan{{ID: 1, Name: "query <&>", StartNS: 5, DurNS: 7,
		Attrs: []trace.WireAttr{{Key: "dataset", Str: "a&b\u2028"}}}}
	for schema, recs := range schemaRecords(t, 60) {
		for _, limit := range []int{0, 1, 7, 50} {
			partSets := map[string][]stdata.PartResult{
				"nil":     nil,
				"empty":   {},
				"chunked": cutParts(recs, []int{5, 0, 20, 35}, limit),
			}
			for pname, parts := range partSets {
				for mask := 0; mask < 4; mask++ {
					s := SubQueryResponse{Gen: int64(limit), Count: 4000, Cache: "miss", ElapsedMS: 0.375, Parts: parts}
					if mask&1 != 0 {
						s.Approx, s.Shard, s.Cache = partial, "s\"\\<1>&\u2028\xff", "hit"
					}
					if mask&2 != 0 {
						s.Spans, s.ElapsedMS = spans, 3e-7
					}
					body, err := s.appendJSON(nil)
					if err != nil {
						t.Fatal(err)
					}
					checkParse(t, fmt.Sprintf("%s limit=%d parts=%s mask=%d", schema, limit, pname, mask), body)
				}
			}
		}
	}

	srv, _, meta := newSubqueryServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, limit := range []int{0, 1, 7, 50} {
		for _, kind := range []string{"plain", "explain", "approx"} {
			req := nycWindow()
			req.Limit, req.Explain, req.Approx = limit, kind == "explain", kind == "approx"
			b, _ := json.Marshal(SubQueryRequest{QueryRequest: req, Gen: meta.Generation, Count: meta.TotalCount,
				Partitions: meta.Prune(req.Window().Space, req.Window().Time)})
			resp, err := http.Post(ts.URL+"/subquery", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("subquery status %d: %v %s", resp.StatusCode, err, body)
			}
			label := fmt.Sprintf("daemon limit=%d %s", limit, kind)
			checkParse(t, label, body)
			if got, _ := ParseSubQueryResponse(body); (kind == "approx") != (got.Approx != nil) ||
				(kind == "explain") != (len(got.Spans) > 0) || (kind != "approx") != (len(got.Parts) > 0) {
				t.Fatalf("%s: reply lacks what the request asked for: %.300s", label, body)
			}
		}
	}
}

func FuzzSubQueryResponse(f *testing.F) {
	recs := schemaRecords(f, 3)
	for _, s := range []SubQueryResponse{
		{},
		{Shard: "s0", Gen: 2, Count: 9, Cache: "miss", ElapsedMS: 1.5, Parts: []stdata.PartResult{}},
		{Shard: "s<1>", Parts: cutParts(recs["nyc"], []int{2, 0, 1}, 0), Spans: []trace.WireSpan{{ID: 1, Name: "q"}}},
		{Parts: cutParts(recs["porto"], []int{3}, 2), Approx: &summary.Partial{CountLo: 1, CellLo: []int64{1}}},
	} {
		body, err := s.appendJSON(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"parts":[null,{"id":1,"records":[null,1,"a",[{}]],"x":{}}],"gen":null,"cache":"\u00e9"} `))
	f.Add([]byte(`{"gen":1.5}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := ParseSubQueryResponse(body)
		if !json.Valid(body) && err == nil {
			t.Fatalf("accepted a body json.Valid rejects: %q", body)
		}
		if err != nil {
			return
		}
		for _, p := range got.Parts {
			for _, rec := range p.Records {
				if !json.Valid(rec) {
					t.Fatalf("record %q is not one JSON value", rec)
				}
			}
		}
	})
}

// BenchmarkParseSubQueryResponse decodes a 1,000-record nyc sub-reply in
// 40 chunks with the router's parser, beside the json.Decoder the router
// used before as the reference.
func BenchmarkParseSubQueryResponse(b *testing.B) {
	var recs []json.RawMessage
	for _, e := range datagen.NYC(1000, 3) {
		rec, err := json.Marshal(e)
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 25
	}
	s := SubQueryResponse{Shard: "s0", Gen: 3, Count: 200000, Cache: "miss", ElapsedMS: 1.25,
		Parts: cutParts(recs, sizes, 0)}
	body, err := s.appendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, decode func() (SubQueryResponse, error)) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if out, err := decode(); err != nil || len(out.Parts) != len(sizes) {
				b.Fatalf("%d parts: %v", len(out.Parts), err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(body)), "ns/byte")
	}
	b.Run("parse", func(b *testing.B) {
		run(b, func() (SubQueryResponse, error) { return ParseSubQueryResponse(body) })
	})
	b.Run("json.Decoder", func(b *testing.B) {
		run(b, func() (out SubQueryResponse, err error) {
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&out)
			return out, err
		})
	})
}
