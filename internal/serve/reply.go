package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"st4ml/internal/jsonenc"
	"st4ml/internal/stdata"
	"st4ml/internal/subscribe"
)

// This file is the reply writer for record-carrying bodies — /query,
// /subquery and subscription pushes. Their records are already JSON, each
// appended once by its schema's encoder (stdata.Spec.AppendJSON), so the
// writer copies them into the body verbatim; encoding/json would re-scan
// every byte of every json.RawMessage to compact and validate it. The
// envelope fields are appended in declaration order, and encoding/json
// encodes only the nested values that carry no records (stats, explain,
// approx, spans). The bytes are exactly what encoding/json writes for the
// same value: WriteJSON's for replies, json.Marshal's for pushes.

// writeReply answers 200 with the body encode appends, plus the trailing
// newline WriteJSON's encoder writes. The body is encoded in full before
// the header goes out, so a value that fails to encode answers 500 with
// the error body, counted in query_errors, instead of 200 with an empty
// body.
func (f *Front) writeReply(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	body, err := encode(nil)
	if err != nil {
		f.fail(w, fmt.Errorf("serve: encode reply: %w", err))
		return
	}
	writeBody(w, http.StatusOK, append(body, '\n'))
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is the client gone; nothing to answer
}

// appendJSON appends the reply as WriteJSON encodes it.
func (r QueryResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, envelopeBytes+splicedBytes(r.Records, r.Parts))
	dst = append(dst, `{"dataset":`...)
	dst = jsonenc.AppendString(dst, r.Dataset, false)
	dst = append(dst, `,"cache":`...)
	dst = jsonenc.AppendString(dst, r.Cache, false)
	dst = append(dst, `,"elapsed_ms":`...)
	dst, err := jsonenc.AppendFloat(dst, r.ElapsedMS)
	if err != nil {
		return dst, err
	}
	if r.Explain != nil {
		if dst, err = appendValue(append(dst, `,"explain":`...), r.Explain); err != nil {
			return dst, err
		}
	}
	if r.Approx != nil {
		if dst, err = appendValue(append(dst, `,"approx":`...), r.Approx); err != nil {
			return dst, err
		}
	}
	if dst, err = appendValue(append(dst, `,"stats":`...), r.Stats); err != nil {
		return dst, err
	}
	if len(r.Records) > 0 {
		dst = appendRecords(append(dst, `,"records":`...), r.Records)
	}
	if len(r.Parts) > 0 {
		dst = appendParts(append(dst, `,"parts":`...), r.Parts)
	}
	return append(dst, '}'), nil
}

// appendJSON appends the reply as WriteJSON encodes it.
func (r SubQueryResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, envelopeBytes+splicedBytes(nil, r.Parts))
	dst = append(dst, '{')
	if r.Shard != "" {
		dst = append(jsonenc.AppendString(append(dst, `"shard":`...), r.Shard, false), ',')
	}
	dst = strconv.AppendInt(append(dst, `"gen":`...), r.Gen, 10)
	dst = strconv.AppendInt(append(dst, `,"count":`...), r.Count, 10)
	dst = append(dst, `,"cache":`...)
	dst = jsonenc.AppendString(dst, r.Cache, false)
	dst = append(dst, `,"elapsed_ms":`...)
	dst, err := jsonenc.AppendFloat(dst, r.ElapsedMS)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"parts":`...)
	if r.Parts == nil {
		dst = append(dst, "null"...)
	} else {
		dst = appendParts(dst, r.Parts)
	}
	if r.Approx != nil {
		if dst, err = appendValue(append(dst, `,"approx":`...), r.Approx); err != nil {
			return dst, err
		}
	}
	if len(r.Spans) > 0 {
		if dst, err = appendValue(append(dst, `,"spans":`...), r.Spans); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// ParseSubQueryResponse decodes a /subquery reply, the decode side of
// SubQueryResponse.appendJSON, in one validating pass over body. Each
// record is a sub-slice of body rather than a copy, so the result pins
// body for as long as it holds records. For the replies a shard writes it
// decodes what json.Unmarshal does. Envelope keys match byte-exactly, and
// any other key is validated and skipped, as encoding/json skips unknown
// fields. approx and spans, small and present only on approx or traced
// sub-queries, are unmarshalled from their own sub-slices. A body
// json.Valid rejects, trailing bytes other than whitespace and a value of
// the wrong type are errors.
func ParseSubQueryResponse(body []byte) (SubQueryResponse, error) {
	var out SubQueryResponse
	i, err := jsonenc.ScanObject(body, jsonenc.SkipSpace(body, 0), 0, func(key []byte, i int) (int, error) {
		switch string(key) {
		case "shard":
			return parseString(body, i, 1, &out.Shard)
		case "gen":
			return parseInt(body, i, 1, &out.Gen)
		case "count":
			return parseInt(body, i, 1, &out.Count)
		case "cache":
			return parseString(body, i, 1, &out.Cache)
		case "elapsed_ms":
			return parseFloat(body, i, 1, &out.ElapsedMS)
		case "parts":
			return parseParts(body, i, &out.Parts)
		case "approx":
			return unmarshalAt(body, i, 1, &out.Approx)
		case "spans":
			return unmarshalAt(body, i, 1, &out.Spans)
		}
		return jsonenc.ScanValue(body, i, 1)
	})
	if err == nil {
		if i = jsonenc.SkipSpace(body, i); i < len(body) {
			err = jsonenc.ErrorAt(body, i)
		}
	}
	if err != nil {
		return SubQueryResponse{}, fmt.Errorf("serve: sub-query reply: %w", err)
	}
	return out, nil
}

// parseParts decodes the parts array at body[i]. The records stay where
// the shard wrote them: each is the sub-slice of body its value spans.
// Their slice headers share one array, re-cut per part once it has
// stopped growing.
func parseParts(body []byte, i int, dst *[]stdata.PartResult) (int, error) {
	var parts []stdata.PartResult
	if i < len(body) && body[i] == '[' {
		parts = []stdata.PartResult{} // [] decodes to an empty slice, null to nil
	}
	var recs []json.RawMessage
	var starts []int // starts[k] is where part k's records begin in recs
	end, err := jsonenc.ScanArray(body, i, 1, func(i int) (int, error) {
		var pr stdata.PartResult
		start := 0
		end, err := jsonenc.ScanObject(body, i, 2, func(key []byte, i int) (int, error) {
			switch string(key) {
			case "id":
				return parseInt(body, i, 3, &pr.ID)
			case "selected":
				return parseInt(body, i, 3, &pr.Selected)
			case "records":
				pr.Records, start = nil, len(recs)
				if i < len(body) && body[i] == '[' {
					pr.Records = []json.RawMessage{}
				}
				return jsonenc.ScanArray(body, i, 3, func(i int) (int, error) {
					end, err := jsonenc.ScanValue(body, i, 4)
					if err == nil {
						recs = append(recs, body[i:end:end])
						pr.Records = recs[start:]
					}
					return end, err
				})
			}
			return jsonenc.ScanValue(body, i, 3)
		})
		parts, starts = append(parts, pr), append(starts, start)
		return end, err
	})
	if err != nil {
		return end, err
	}
	for k := range parts {
		if n := len(parts[k].Records); n > 0 {
			parts[k].Records = recs[starts[k] : starts[k]+n : starts[k]+n]
		}
	}
	*dst = parts
	return end, nil
}

// scanScalar scans the value at body[i], nested in depth arrays and
// objects, and returns its bytes: nil for null, which json.Unmarshal
// decodes into a string or number by leaving it as it is.
func scanScalar(body []byte, i, depth int) ([]byte, int, error) {
	end, err := jsonenc.ScanValue(body, i, depth)
	if err != nil || body[i] == 'n' {
		return nil, end, err
	}
	return body[i:end], end, nil
}

func typeError(raw []byte, offset int, want string) error {
	if len(raw) > 24 {
		raw = raw[:24]
	}
	return fmt.Errorf("cannot decode %s at offset %d as %s", raw, offset, want)
}

func parseInt[T int | int64](body []byte, i, depth int, dst *T) (int, error) {
	raw, end, err := scanScalar(body, i, depth)
	if err != nil || raw == nil {
		return end, err
	}
	n, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil || int64(T(n)) != n {
		return end, typeError(raw, i, "an integer")
	}
	*dst = T(n)
	return end, nil
}

func parseFloat(body []byte, i, depth int, dst *float64) (int, error) {
	raw, end, err := scanScalar(body, i, depth)
	if err != nil || raw == nil {
		return end, err
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return end, typeError(raw, i, "a number")
	}
	*dst = f
	return end, nil
}

// parseString decodes the string at body[i]. One of printable ASCII with
// no escapes, what a shard's name and cache disposition always are, is
// its own bytes; any other is left to json.Unmarshal's unquoting.
func parseString(body []byte, i, depth int, dst *string) (int, error) {
	raw, end, err := scanScalar(body, i, depth)
	if err != nil || raw == nil {
		return end, err
	}
	if raw[0] != '"' {
		return end, typeError(raw, i, "a string")
	}
	for _, c := range raw[1 : len(raw)-1] {
		if c == '\\' || c >= utf8.RuneSelf {
			return end, json.Unmarshal(raw, dst)
		}
	}
	*dst = string(raw[1 : len(raw)-1])
	return end, nil
}

// unmarshalAt scans the value at body[i], nested in depth arrays and
// objects, and json.Unmarshals it into dst.
func unmarshalAt(body []byte, i, depth int, dst any) (int, error) {
	end, err := jsonenc.ScanValue(body, i, depth)
	if err != nil {
		return end, err
	}
	return end, json.Unmarshal(body[i:end], dst)
}

// appendUpdate appends a subscription push as json.Marshal encodes it —
// HTML-escaped, unlike a reply. Its records need no escaping pass: every
// record is its encoder's output, which escapes HTML already.
func appendUpdate(dst []byte, u subscribe.Update) []byte {
	dst = slices.Grow(dst, envelopeBytes+splicedBytes(u.Records, u.Parts))
	dst = append(dst, `{"kind":`...)
	dst = jsonenc.AppendString(dst, string(u.Kind), true)
	dst = append(dst, `,"dataset":`...)
	dst = jsonenc.AppendString(dst, u.Dataset, true)
	dst = strconv.AppendInt(append(dst, `,"generation":`...), u.Generation, 10)
	dst = strconv.AppendInt(append(dst, `,"next_seq":`...), u.NextSeq, 10)
	dst = strconv.AppendInt(append(dst, `,"seq":`...), u.Seq, 10)
	dst = strconv.AppendInt(append(dst, `,"partition":`...), int64(u.Partition), 10)
	if len(u.Records) > 0 {
		dst = appendRecords(append(dst, `,"records":`...), u.Records)
	}
	if len(u.Parts) > 0 {
		dst = appendParts(append(dst, `,"parts":`...), u.Parts)
	}
	if u.Dropped != 0 {
		dst = strconv.AppendInt(append(dst, `,"dropped":`...), u.Dropped, 10)
	}
	return append(dst, '}')
}

// appendValue appends v as encoding/json encodes it with HTML escaping
// off: WriteJSON's bodies and the nested values of a reply that carry no
// records.
func appendValue(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return dst, err
	}
	b := buf.Bytes()
	return b[:len(b)-1], nil // Encode's trailing newline
}

// appendRecords splices records into a JSON array verbatim.
func appendRecords(dst []byte, recs []json.RawMessage) []byte {
	dst = append(dst, '[')
	for i, rec := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, rec...)
	}
	return append(dst, ']')
}

// appendParts appends per-partition chunks as encoding/json encodes
// []stdata.PartResult, splicing their records verbatim.
func appendParts(dst []byte, parts []stdata.PartResult) []byte {
	dst = append(dst, '[')
	for i, p := range parts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"id":`...), int64(p.ID), 10)
		dst = strconv.AppendInt(append(dst, `,"selected":`...), p.Selected, 10)
		if len(p.Records) > 0 {
			dst = appendRecords(append(dst, `,"records":`...), p.Records)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// envelopeBytes is room for a reply's fields other than its records; an
// explain or approx envelope larger than it grows the buffer once more.
const envelopeBytes = 512

// splicedBytes is the size of recs and of parts with their records as
// appendRecords and appendParts write them, so one allocation holds a
// reply.
func splicedBytes(recs []json.RawMessage, parts []stdata.PartResult) int {
	n := 2
	for _, rec := range recs {
		n += len(rec) + 1
	}
	for _, p := range parts {
		n += 64
		for _, rec := range p.Records {
			n += len(rec) + 1
		}
	}
	return n
}
