package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

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
// same value: WriteJSON's for /query replies, json.Marshal's for pushes.
// A /subquery reply is a binary frame instead (frame.go).

// A replyFormat is what differs between the bodies writeReply answers:
// the content type, and whether the body ends in the newline WriteJSON's
// encoder writes.
type replyFormat struct {
	contentType string
	newline     bool
}

var (
	jsonReply  = replyFormat{contentType: "application/json", newline: true}
	frameReply = replyFormat{contentType: subReplyContentType}
)

// writeReply answers 200 with the body encode appends, in format. The
// body is encoded in full before the header goes out, so a value that
// fails to encode answers 500 with the JSON error body, counted in
// query_errors, instead of 200 with an empty body. encode appends into a
// buffer from replyBufs, which goes back to the pool once Write returns:
// nothing may keep the body past that.
func (f *Front) writeReply(w http.ResponseWriter, format replyFormat, encode func([]byte) ([]byte, error)) {
	bp := replyBufs.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	if err != nil {
		f.fail(w, fmt.Errorf("serve: encode reply: %w", err))
	} else {
		if format.newline {
			body = append(body, '\n')
		}
		writeBody(w, http.StatusOK, format.contentType, body)
	}
	// A body larger than maxPooledReply is dropped, so one huge answer
	// does not stay pinned in the pool (fmt's printer pool does the same).
	if cap(body) <= maxPooledReply {
		*bp = body[:0]
		replyBufs.Put(bp)
	}
}

// replyBufs pools reply bodies across requests; maxPooledReply caps the
// capacity a pooled body may keep.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 1 << 20

func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
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
