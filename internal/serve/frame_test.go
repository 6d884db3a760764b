package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"st4ml/internal/codec"
	"st4ml/internal/datagen"
	"st4ml/internal/stdata"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

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

// decoded is v as ParseSubQueryFrame decodes appendFrame's frame of it.
// The rule for nil versus empty: a frame's counts cannot tell an empty
// list from an absent one, so empty parts and empty records decode as nil,
// as absent ones do. The envelope is held as encoding/json holds it, so a
// shard name's invalid UTF-8 decodes as U+FFFD.
func decoded(v SubQueryResponse) SubQueryResponse {
	v.Shard = strings.ToValidUTF8(v.Shard, "\uFFFD")
	if len(v.Parts) == 0 {
		v.Parts = nil
		return v
	}
	v.Parts = slices.Clone(v.Parts)
	for k := range v.Parts {
		if len(v.Parts[k].Records) == 0 {
			v.Parts[k].Records = nil
		}
	}
	return v
}

// checkAliases asserts every record of got is a sub-slice of body whose
// capacity ends where the record does, so appending to one record can
// never overwrite the next.
func checkAliases(t *testing.T, label string, got SubQueryResponse, body []byte) {
	t.Helper()
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	hi := lo + uintptr(len(body))
	for _, p := range got.Parts {
		for _, rec := range p.Records {
			at := uintptr(unsafe.Pointer(unsafe.SliceData(rec)))
			if at < lo || at+uintptr(len(rec)) > hi || cap(rec) != len(rec) {
				t.Fatalf("%s: record %q is not its own sub-slice of the body", label, rec)
			}
		}
	}
}

// checkFrame holds ParseSubQueryFrame to appendFrame on one reply: the
// frame decodes to decoded(v), its records alias the body, and the decoded
// reply re-encodes to the same bytes as decoded(v) does.
func checkFrame(t *testing.T, label string, v SubQueryResponse) {
	t.Helper()
	body, err := v.appendFrame(nil)
	if err != nil {
		t.Fatalf("%s: appendFrame: %v", label, err)
	}
	got, err := ParseSubQueryFrame(body)
	if err != nil {
		t.Fatalf("%s: ParseSubQueryFrame: %v", label, err)
	}
	want := decoded(v)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: parsed\n %+v\nwant\n %+v", label, got, want)
	}
	checkAliases(t, label, got, body)
	again, err := got.appendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantBody, _ := want.appendFrame(nil); !bytes.Equal(again, wantBody) {
		t.Fatalf("%s: the decoded reply re-encodes to other bytes", label)
	}
}

// TestSubQueryFrameRoundTrip holds the router's sub-reply parser to the
// shard's frame writer: ParseSubQueryFrame(appendFrame(v)) equals v, under
// decoded's rule, for every schema's records, parts nil, empty, with empty
// chunks and chunked at several limits, with and without an approx
// envelope and spans; and a test daemon's real /subquery replies parse,
// carry what their request asked for, re-encode to their own bytes, and
// hold the chunks the daemon's executor answered.
func TestSubQueryFrameRoundTrip(t *testing.T) {
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
				"empty-chunks": {
					{ID: 3, Selected: 0},
					{ID: 9, Selected: 1, Records: []json.RawMessage{}},
					{ID: 1 << 40, Selected: 1 << 50, Records: recs[:1]},
				},
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
					checkFrame(t, fmt.Sprintf("%s limit=%d parts=%s mask=%d", schema, limit, pname, mask), s)
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
			sub := SubQueryRequest{QueryRequest: req, Gen: meta.Generation, Count: meta.TotalCount,
				Partitions: meta.Prune(req.Window().Space, req.Window().Time)}
			b, _ := json.Marshal(sub)
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
			if ct := resp.Header.Get("Content-Type"); ct != subReplyContentType {
				t.Fatalf("%s: content type %q, want %q", label, ct, subReplyContentType)
			}
			got, err := ParseSubQueryFrame(body)
			if err != nil {
				t.Fatalf("%s: ParseSubQueryFrame: %v", label, err)
			}
			checkAliases(t, label, got, body)
			if (kind == "approx") != (got.Approx != nil) || (kind == "explain") != (len(got.Spans) > 0) ||
				(kind != "approx") != (len(got.Parts) > 0) {
				t.Fatalf("%s: reply lacks what the request asked for: %+v", label, got)
			}
			if again, err := got.appendFrame(nil); err != nil || !bytes.Equal(again, body) {
				t.Fatalf("%s: the reply re-encodes to other bytes (%v)", label, err)
			}
			val, _, _, err := srv.execute(context.Background(), sub, true)
			if err != nil {
				t.Fatal(err)
			}
			if want := decoded(val.(SubQueryResponse)); !reflect.DeepEqual(got.Parts, want.Parts) {
				t.Fatalf("%s: chunks differ from the executor's", label)
			}
		}
	}
}

// frameSeeds are real frames: an empty reply, one part, 40 parts (some of
// them empty), an approx reply and a traced one.
func frameSeeds(tb testing.TB) [][]byte {
	recs := schemaRecords(tb, 60)
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = i % 3
	}
	var out [][]byte
	for _, s := range []SubQueryResponse{
		{},
		{Shard: "s0", Gen: 2, Count: 9, Cache: "miss", ElapsedMS: 1.5, Parts: cutParts(recs["nyc"], []int{3}, 0)},
		{Shard: "s1", Gen: 1, Count: 60, Cache: "hit", Parts: cutParts(recs["nyc"], sizes, 0)},
		{Approx: &summary.Partial{CountLo: 1, CellLo: []int64{1}}},
		{Shard: "s<1>", Parts: cutParts(recs["osm"], []int{2, 0, 1}, 2), Spans: []trace.WireSpan{{ID: 1, Name: "q"}}},
	} {
		body, err := s.appendFrame(nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// refit sets body's header length and checksum to fit the bytes after
// the header, in place, and returns body.
func refit(body []byte) []byte {
	binary.LittleEndian.PutUint32(body[5:], uint32(len(body)-frameHeader))
	binary.LittleEndian.PutUint32(body[9:], codec.Checksum(body[frameHeader:]))
	return body
}

// rawFrame is a frame around the concatenated payload pieces, with a
// header that fits them.
func rawFrame(version byte, pieces ...string) []byte {
	body := append([]byte(frameMagic), version, 0, 0, 0, 0, 0, 0, 0, 0)
	for _, p := range pieces {
		body = append(body, p...)
	}
	return refit(body)
}

// malformedFrames are frames whose length and checksum fit, each with one
// flaw past them, beside a well-formed "ok" frame of the same shape: an
// envelope, one part with id 2, selected 1 and one two-byte record.
func malformedFrames() map[string][]byte {
	const envJSON = `{"gen":1,"count":0,"cache":"","elapsed_ms":0}`
	env := string([]byte{byte(len(envJSON))}) + envJSON
	return map[string][]byte{
		"ok":                      rawFrame(frameVersion, env, "\x01\x02\x01\x01\x02", "{}"),
		"version":                 rawFrame(frameVersion+1, env, "\x01\x02\x01\x01\x02", "{}"),
		"non-minimal varint":      rawFrame(frameVersion, env, "\x01\x02\x01\x01\x82\x00", "{}"),
		"truncated varint":        rawFrame(frameVersion, env, "\x01\x02\x01\x01\x82"),
		"zero-length record":      rawFrame(frameVersion, env, "\x01\x02\x01\x02\x00\x02", "{}"),
		"record past payload":     rawFrame(frameVersion, env, "\x01\x02\x01\x01\x03", "{}"),
		"bytes after records":     rawFrame(frameVersion, env, "\x01\x02\x01\x01\x02", "{} "),
		"part count past frame":   rawFrame(frameVersion, env, "\xe8\x07\x02\x01\x01\x02", "{}"),
		"record count past frame": rawFrame(frameVersion, env, "\x01\x02\x01\xe8\x07\x02", "{}"),
		"envelope past frame":     rawFrame(frameVersion, "\xc8\x01"+`{"gen":1}`, "\x00"),
		"envelope not JSON":       rawFrame(frameVersion, "\x04nope", "\x00"),
		"no envelope":             rawFrame(frameVersion, "\x00", "\x00"),
	}
}

// TestParseSubQueryFrameRejects pins that every flaw past a fitting
// length and checksum, a header whose length does not fit, and the JSON
// reply of a shard older than the router are errors wrapping
// codec.ErrCorrupt, not panics or partial replies; the JSON one says so.
func TestParseSubQueryFrameRejects(t *testing.T) {
	bodies := malformedFrames()
	if got, err := ParseSubQueryFrame(bodies["ok"]); err != nil || len(got.Parts) != 1 || got.Gen != 1 ||
		string(got.Parts[0].Records[0]) != "{}" {
		t.Fatalf("the well-formed frame: %+v, %v", got, err)
	}
	delete(bodies, "ok")
	long := rawFrame(frameVersion, "\x00")
	binary.LittleEndian.PutUint32(long[5:], 2)
	bodies["length past body"] = long
	bodies["short header"] = []byte(frameMagic)
	bodies["JSON"] = []byte(`{"shard":"s0","gen":0,"count":9,"cache":"miss","elapsed_ms":1.5,"parts":[]}`)
	for name, body := range bodies {
		got, err := ParseSubQueryFrame(body)
		if err == nil {
			t.Errorf("%s: accepted as %+v", name, got)
			continue
		}
		if !errors.As(err, new(codec.ErrCorrupt)) {
			t.Errorf("%s: error %v does not wrap codec.ErrCorrupt", name, err)
		}
		if name == "JSON" && !strings.Contains(err.Error(), "older than this router") {
			t.Errorf("JSON reply: error %q does not name the version skew", err)
		}
	}
}

// frameTable is a frame's payload past its envelope: the part table and
// the record bytes.
func frameTable(body []byte) []byte {
	payload := body[frameHeader:]
	n, k := binary.Uvarint(payload)
	return payload[k+int(n):]
}

// FuzzSubQueryFrame holds the parser to three properties: it never
// panics, every body it accepts re-encodes to the same bytes, and every
// single-bit flip of a real frame is rejected. The checksum keeps nearly
// every mutation away from the fields, so each input is also parsed with
// its header's length and checksum made to fit; what that accepts has
// records that alias the body, and a part table and record bytes that
// re-encode to their own bytes. Its envelope is only held to decoding:
// encoding/json accepts more than one spelling of a value (spacing, key
// order), and a frame that fits its checksum with another spelling than
// the writer's decodes to the same reply.
func FuzzSubQueryFrame(f *testing.F) {
	seeds := frameSeeds(f)
	for _, body := range seeds {
		for i := range body {
			for bit := 0; bit < 8; bit++ {
				body[i] ^= 1 << bit
				if _, err := ParseSubQueryFrame(body); err == nil {
					f.Fatalf("accepted a frame with bit %d of byte %d flipped", bit, i)
				}
				body[i] ^= 1 << bit
			}
		}
		f.Add(body)
		for _, n := range []int{len(body) / 2, len(body) - 1, frameHeader, 3} {
			f.Add(body[:n])
		}
	}
	for _, body := range malformedFrames() {
		f.Add(body)
	}
	f.Add([]byte(`{"shard":"s0","gen":0,"count":9,"cache":"miss","elapsed_ms":1.5,"parts":[]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := ParseSubQueryFrame(body)
		if err == nil {
			if again, err := got.appendFrame(nil); err != nil || !bytes.Equal(again, body) {
				t.Fatalf("accepted %q, which re-encodes to %q (%v)", body, again, err)
			}
		} else if !errors.As(err, new(codec.ErrCorrupt)) {
			t.Fatalf("error %v does not wrap codec.ErrCorrupt", err)
		}
		if len(body) < frameHeader {
			return
		}
		fitted := refit(bytes.Clone(body))
		if got, err = ParseSubQueryFrame(fitted); err != nil {
			return
		}
		checkAliases(t, "fitted", got, fitted)
		again, err := got.appendFrame(nil)
		if err != nil {
			t.Fatalf("accepted %q, which does not re-encode: %v", fitted, err)
		}
		if !bytes.Equal(frameTable(again), frameTable(fitted)) {
			t.Fatalf("accepted %q, whose table re-encodes to %q", fitted, frameTable(again))
		}
	})
}

// BenchmarkParseSubQueryFrame decodes a 1,000-record nyc sub-reply in 40
// chunks with the router's parser.
func BenchmarkParseSubQueryFrame(b *testing.B) {
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
	body, err := s.appendFrame(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if out, err := ParseSubQueryFrame(body); err != nil || len(out.Parts) != len(sizes) {
			b.Fatalf("%d parts: %v", len(out.Parts), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(body)), "ns/byte")
}
