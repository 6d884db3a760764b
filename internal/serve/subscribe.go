package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"st4ml/internal/index"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/subscribe"
)

// The serving tier's online path: POST /subscribe registers the request
// window as a standing subscription on the server's hub and streams the
// hub's updates back over Server-Sent Events. Commits reach the hub
// synchronously through the storage OnCommit hook AddDataset registers
// (in-process writers: stingest -demo loops, tests, benches), whose event
// carries the committed deltas themselves, and through the hub's manifest
// poll (writers in other processes).

// subKeepAlive is how often an idle SSE stream emits a comment frame so
// clients and intermediaries can distinguish quiet from dead.
const subKeepAlive = 15 * time.Second

// subSnapshot is the cached form of one subscription snapshot: the
// per-partition chunks plus the consistent view's generation and sequence
// fence. Cached under the "sub|<name>|<gen>|..." key family, which
// noteGeneration drops whenever the dataset moves.
type subSnapshot struct {
	parts   []stdata.PartResult
	gen     int64
	nextSeq int64
}

// subSource adapts one catalog dataset to the hub's Source: manifests come
// straight from disk (the notifier's fallback cursor must see every
// commit), delta reads go through the schema with the pinned metadata, and
// snapshots run the ordinary cached ServeQuery path in per-partition mode.
type subSource struct {
	s *Server
	d *Dataset
}

func (src subSource) Manifest() (*storage.Manifest, error) {
	return storage.ReadManifest(src.d.Dir)
}

// ReadDelta decodes a delta with the pinned metadata: a delta file is
// self-describing but for the dataset's compression flag, which only a
// re-ingest changes, so it needs no revalidation per delta.
func (src subSource) ReadDelta(dm storage.DeltaMeta) ([]index.Box, []json.RawMessage, error) {
	return src.d.Schema.ReadDelta(src.d.Dir, src.d.pinned(), dm)
}

func (src subSource) Snapshot(w selection.Window, limit int) ([]stdata.PartResult, int64, int64, error) {
	d := src.d
	v, err := d.revalidate()
	if err != nil {
		return nil, 0, 0, err
	}
	src.s.noteGeneration(d, v)
	key := fmt.Sprintf("sub|%s|%d|%v,%v,%v,%v|%d,%d|%d", d.Name, v.gen,
		w.Space.MinX, w.Space.MinY, w.Space.MaxX, w.Space.MaxY,
		w.Time.Start, w.Time.End, limit)
	got, err := src.s.cache.GetOrLoad(key, func() (any, int64, error) {
		res, err := d.Schema.ServeQuery(src.s.ctx, d.Dir, v.meta,
			src.s.fetcher(d, v, src.s.ctx), w,
			stdata.QueryOptions{Records: true, Limit: limit, PerPartition: true})
		if err != nil {
			return nil, 0, err
		}
		sn := subSnapshot{parts: res.Parts, gen: v.meta.Generation, nextSeq: v.meta.NextSeq}
		return sn, snapshotBytes(sn.parts), nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	sn := got.(subSnapshot)
	return sn.parts, sn.gen, sn.nextSeq, nil
}

// snapshotBytes estimates a cached snapshot's resident size.
func snapshotBytes(parts []stdata.PartResult) int64 {
	n := int64(128)
	for _, p := range parts {
		n += 64
		for _, rec := range p.Records {
			n += int64(len(rec)) + 24
		}
	}
	return n
}

// Hub exposes the server's subscription hub — the in-process subscribe
// path tests and benches use to bypass HTTP.
func (s *Server) Hub() *subscribe.Hub { return s.hub }

// attachSubscriptions wires a registered dataset into the online path: the
// hub learns the dataset, and the storage commit hook hands the hub every
// in-process append or compaction synchronously, event and all.
func (s *Server) attachSubscriptions(d *Dataset) {
	s.hub.Attach(d.Name, subSource{s: s, d: d})
	name := d.Name
	cancel := storage.OnCommit(d.Dir, func(ev storage.CommitEvent) error {
		return s.hub.Notify(name, ev)
	})
	s.hookMu.Lock()
	s.hookCancels = append(s.hookCancels, cancel)
	s.hookMu.Unlock()
}

// Close releases the server's background resources: the subscription
// poller, every live subscriber, and the storage commit hooks. The daemon
// never calls it (hooks live as long as the process); tests and embedders
// that build many servers per process must.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.hub.StopPolling()
		s.hub.CloseAll()
		s.hookMu.Lock()
		cancels := s.hookCancels
		s.hookCancels = nil
		s.hookMu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
	})
}

// handleSubscribe registers the request window as a standing subscription
// and streams init/batch/resync updates as SSE frames until the client
// disconnects or the daemon drains.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req, nil) {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, errors.New("streaming unsupported"))
		return
	}
	sub, err := s.hub.Subscribe(req.Dataset, req.Window(), subscribe.Options{Limit: req.Limit})
	if errors.Is(err, subscribe.ErrUnknownDataset) {
		err = &StatusError{Status: http.StatusNotFound, Err: err}
	}
	if s.fail(w, err) {
		return
	}
	defer sub.Close()
	s.subscribes.Add(1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	for {
		kctx, cancel := context.WithTimeout(ctx, subKeepAlive)
		u, err := sub.Next(kctx)
		cancel()
		switch {
		case err == nil:
			if writeSSE(w, u) != nil {
				return // client gone
			}
			fl.Flush()
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		default:
			// Subscription closed (drain), client context done, or a resync
			// snapshot failed; the stream ends and the client's reconnect
			// starts clean from a fresh init.
			return
		}
	}
}

// writeSSE frames one update as a Server-Sent Event, written in one call.
// The event name is the update kind and the id encodes generation:seq, so
// a bare `curl` session reads as a self-describing log; the data line is
// json.Marshal(u) with the records spliced verbatim (appendUpdate).
func writeSSE(w io.Writer, u subscribe.Update) error {
	b := append([]byte("event: "), u.Kind...)
	b = strconv.AppendInt(append(b, "\nid: "...), u.Generation, 10)
	b = strconv.AppendInt(append(b, ':'), u.Seq, 10)
	b = appendUpdate(append(b, "\ndata: "...), u)
	_, err := w.Write(append(b, "\n\n"...))
	return err
}
