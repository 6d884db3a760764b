package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// This file is the HTTP face both daemons share: the serving daemon and
// the cluster router mount the same POST /query handler, the same probes,
// and the same error and status accounting, so a request gets the same
// status and body from one node as from a fleet.

// MaxBodyBytes bounds every decoded request body. A sub-query's partition
// list is a few KB, so 1 MiB is ample; a larger body answers 413.
const MaxBodyBytes = 1 << 20

// StatusError is a request failure carrying the HTTP status it answers
// with; any other error answers 500.
type StatusError struct {
	Status int
	Err    error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// Errorf formats a StatusError.
func Errorf(status int, format string, args ...any) error {
	return &StatusError{Status: status, Err: fmt.Errorf(format, args...)}
}

// StatusOf is the HTTP status err answers with: 200 for nil, a
// StatusError's own, else 500.
func StatusOf(err error) int {
	var se *StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.Status
	}
	return http.StatusInternalServerError
}

// errorResponse is the JSON error body for non-200 statuses.
type errorResponse struct {
	Error string `json:"error"`
}

// errDraining is the refusal a draining daemon answers new work with.
var errDraining = errors.New("serve: draining")

// WriteJSON writes body as a JSON reply with status, by encoding/json with
// HTML escaping off — for bodies that carry no records (record-carrying
// replies go through the splicing writer in reply.go, byte-identical to
// this one). The body is encoded in full before the header goes out, so a
// value that fails to encode answers 500 with the error body instead of
// status with an empty one.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	b, err := appendValue(nil, body)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = appendValue(nil, errorResponse{Error: fmt.Sprintf("serve: encode reply: %v", err)}) // a string always encodes
	}
	writeBody(w, status, append(b, '\n'))
}

// Front is the request-side state both daemons share: the drain switch
// and the request counters their handlers keep.
type Front struct {
	// draining flips once, when a SIGTERM begins the shutdown drain: the
	// readiness probe turns 503 so routers stop sending new work, while
	// liveness stays green and in-flight requests finish.
	draining    atomic.Bool
	queries     atomic.Int64
	queryErrors atomic.Int64
}

// SetDraining marks the daemon as draining (or not): readiness turns 503
// and new work is refused while in-flight work completes.
func (f *Front) SetDraining(v bool) { f.draining.Store(v) }

// Draining reports whether the daemon is draining.
func (f *Front) Draining() bool { return f.draining.Load() }

// Counts returns the /query count and the server faults among all
// requests.
func (f *Front) Counts() (queries, queryErrors int64) {
	return f.queries.Load(), f.queryErrors.Load()
}

// decode admits one request: 503 while draining, then the JSON body —
// bounded at MaxBodyBytes (413 past it, 400 if malformed) — into dst, and
// ?explain=1 onto explain when non-nil. It writes any refusal itself and
// reports whether to proceed.
func (f *Front) decode(w http.ResponseWriter, r *http.Request, dst any, explain *bool) bool {
	if f.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: errDraining.Error()})
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(dst); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		return !f.fail(w, Errorf(status, "decode request: %w", err))
	}
	if explain != nil && r.URL.Query().Get("explain") == "1" {
		*explain = true
	}
	return true
}

// fail answers err, if any, with its status and reports whether it did.
// Only a server fault — a 5xx other than the 504 deadline shed — counts
// in query_errors; a refusal is the request's or the load's doing.
func (f *Front) fail(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	status := StatusOf(err)
	if status >= http.StatusInternalServerError && status != http.StatusGatewayTimeout {
		f.queryErrors.Add(1)
	}
	WriteJSON(w, status, errorResponse{Error: err.Error()})
	return true
}

// QueryHandler is the one POST /query handler, mounted by the serving
// daemon and the cluster router alike: decode, ?explain=1, the draining
// 503, the counters, status accounting, and the QueryResponse write —
// records spliced verbatim into the body (writeReply), result-cache hits
// included. run answers one decoded request; its error carries the status
// (StatusOf).
func (f *Front) QueryHandler(run func(context.Context, QueryRequest) (QueryResponse, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var req QueryRequest
		if !f.decode(w, r, &req, &req.Explain) {
			return
		}
		f.queries.Add(1)
		resp, err := run(r.Context(), req)
		if f.fail(w, err) {
			return
		}
		resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		f.writeReply(w, resp.appendJSON)
	}
}

// Probes mounts the health probes: GET /healthz is liveness, green as
// long as the process answers HTTP at all, draining included; GET /readyz
// is readiness, 503 while draining so a router (or load balancer) stops
// sending work before the listener closes.
func (f *Front) Probes(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if f.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
}
