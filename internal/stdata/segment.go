package stdata

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// This file is the pinned form of a decoded partition file: the segment
// the serving cache holds, its reply arena, the live view over a base and
// its deltas, and the one buffer a records query's reply is built in.

// segment is the pinned form of one decoded base or delta file: the run
// index over its records, whose hits equal a linear scan in record order,
// and its records in one of two forms (segState). A point schema's index
// reads the file's own coordinate columns (index.NewPointRuns), any other
// schema's holds a box per record. It starts out holding the file's
// decoded columns, from which a query rebuilds each record it encodes
// (Columnar.Row) and drops it, and switches to its reply arena once the
// records that queries have encoded add up to its record count — the
// break-even point, past which one more encode of the segment would cost
// more than building the arena once did (DESIGN.md, "Reply arenas").
type segment[T any] struct {
	idx   *index.Runs
	n     int
	bytes int64 // the run index's charge; the records' form adds to it
	delta bool
	// state is published whole: a query loads it once and keeps it, so a
	// switch that drops the columns cannot race with a query still reading
	// them.
	state atomic.Pointer[segState]
	// served adds up the records queries have encoded from the columns.
	served atomic.Int64
	// switching is set by the one query that builds the arena. A build
	// that fails leaves it set: the segment never switches.
	switching atomic.Bool
}

// segState is a segment's records: the file's read-side columns before the
// switch, the reply arena after it — every record's AppendJSON bytes back
// to back, record i at arena[off[i]:off[i+1]].
type segState struct {
	cols  *codec.ColBlock
	arena []byte
	off   []uint32
}

// switched reports whether st is the arena form.
func (st *segState) switched() bool { return st.off != nil }

// pin builds the segment over cols, a file's decoded columns. A point
// schema's run index reads cols' (lon, lat, t) columns, its records'
// whole extent, and boxes is unused (nil: the schema's loads ask the
// reader for none); any other schema's is built over boxes, record i's
// box at boxes[i] — the boxes the storage reader returns beside the
// columns, so pinning calls no BoxOf.
func (s schema[T]) pin(cols *codec.ColBlock, boxes []index.Box, delta bool) *segment[T] {
	g := &segment[T]{n: len(cols.IDs), delta: delta}
	if s.spec.Codec.Col.Point {
		g.idx = index.NewPointRuns(cols.Lon, cols.Lat, cols.T)
	} else {
		g.idx = index.NewRuns(boxes)
	}
	g.bytes = g.idx.SizeBytes()
	g.state.Store(&segState{cols: cols})
	return g
}

// pinBoxOf is the box function the schema's loads hand the storage reader:
// nil for a point schema, whose run index reads the columns instead.
func (s schema[T]) pinBoxOf() func(T) index.Box {
	if s.spec.Codec.Col.Point {
		return nil
	}
	return s.spec.BoxOf
}

func (g *segment[T]) Len() int { return g.n }

// SizeBytes is the run index plus what the segment holds of its records:
// its columns and their dictionary before the switch, the arena and 4
// bytes of offset per record after it. The coordinate columns a point
// index reads are counted once: with the columns before the switch, with
// the index after it, when they are all the segment keeps of its columns.
func (g *segment[T]) SizeBytes() int64 {
	st := g.state.Load()
	if st.switched() {
		return g.bytes + int64(len(st.arena)) + 4*int64(g.n)
	}
	return g.bytes - g.idx.ColumnBytes() + st.cols.SizeBytes()
}

func (g *segment[T]) ArenaBytes() int64 { return int64(len(g.state.Load().arena)) }

func (g *segment[T]) matchBound(q index.Box) int { return g.idx.Bound(q) }

func (g *segment[T]) countHits(q index.Box) int {
	n := 0
	g.idx.Search([]index.Box{q}, func(int, int) bool {
		n++
		return true
	})
	return n
}

func (g *segment[T]) appendHits(q index.Box, out []int32) []int32 { return g.search(q, 0, out) }

// search appends the indices of the records intersecting q, each plus
// base, in ascending order.
func (g *segment[T]) search(q index.Box, base int32, out []int32) []int32 {
	g.idx.Search([]index.Box{q}, func(i, _ int) bool {
		out = append(out, base+int32(i))
		return true
	})
	return out
}

// encode appends the records at hits, each less base, to e: spans of the
// arena once the segment has switched, until then each record rebuilt
// from the columns and its wire form encoded into e's buffer. It checks
// the break-even point before it encodes, so a segment queried once never
// builds an arena.
func (g *segment[T]) encode(s schema[T], e *encoded, hits []int32, base int32) error {
	if len(hits) == 0 {
		return nil
	}
	st := g.state.Load()
	if !st.switched() && g.served.Load() >= int64(g.n) {
		st = g.toArena(s, st)
	}
	if st.switched() {
		for _, i := range hits {
			start, end := st.off[i-base], st.off[i-base+1]
			e.span(st.arena[start:end:end])
		}
		return nil
	}
	if err := s.encodeRows(e, st.cols, hits, base); err != nil {
		return err
	}
	g.served.Add(int64(len(hits)))
	return nil
}

// encodeRows rebuilds the records of cols at hits, each less base, and
// appends their wire form to e. The load walked every payload span, so a
// Join that fails here is reported, not expected.
func (s schema[T]) encodeRows(e *encoded, cols *codec.ColBlock, hits []int32, base int32) error {
	if e.pay == nil {
		e.pay = new(codec.Reader)
	}
	var err error
	col := s.spec.Codec.Col
	if cerr := codec.Catch(func() {
		for _, i := range hits {
			rec := col.Row(cols, int(i-base), e.pay)
			if err = s.encodeRecord(e, &rec); err != nil {
				return
			}
		}
	}); cerr != nil {
		return fmt.Errorf("stdata: schema %s: join record: %w", s.spec.Name, cerr)
	}
	return err
}

// toArena switches g to the reply arena built from st's columns and
// returns the state to copy from. Only the first caller builds; a caller
// that loses the race, and every caller after a failed build, keeps st.
func (g *segment[T]) toArena(s schema[T], st *segState) *segState {
	if !g.switching.CompareAndSwap(false, true) {
		return st
	}
	arena, off, ok := s.buildArena(st.cols)
	if !ok {
		return st
	}
	next := &segState{arena: arena, off: off}
	g.state.Store(next)
	return next
}

// buildArena encodes the records of cols back to back into an exactly
// sized arena with their end offsets. It fails when a record does not
// encode (NaN or ±Inf) or the arena would outgrow a uint32 offset.
func (s schema[T]) buildArena(cols *codec.ColBlock) ([]byte, []uint32, bool) {
	n := len(cols.IDs)
	off := make([]uint32, n+1)
	var buf []byte
	ok := true
	col, pay := s.spec.Codec.Col, new(codec.Reader)
	if codec.Catch(func() {
		for i := range n {
			var err error
			if buf, err = s.spec.AppendJSON(buf, col.Row(cols, i, pay)); err != nil || len(buf) > math.MaxUint32 {
				ok = false
				return
			}
			if i == 0 {
				buf = slices.Grow(buf, len(buf)*(n-1)*9/8)
			}
			off[i+1] = uint32(len(buf))
		}
	}) != nil || !ok {
		return nil, nil, false
	}
	if cap(buf) > len(buf) {
		buf = append(make([]byte, 0, len(buf)), buf...)
	}
	return buf, off, true
}

// liveData is a partition's live view: a pinned base segment followed by
// its pinned delta segments in manifest order. It shares, never copies,
// their records. Its record indices run over the segments in that order.
type liveData[T any] []*segment[T]

func (v liveData[T]) Len() int {
	n := 0
	for _, g := range v {
		n += g.Len()
	}
	return n
}

func (v liveData[T]) SizeBytes() int64 {
	var n int64
	for _, g := range v {
		n += g.SizeBytes()
	}
	return n
}

func (v liveData[T]) ArenaBytes() int64 {
	var n int64
	for _, g := range v {
		n += g.ArenaBytes()
	}
	return n
}

func (v liveData[T]) matchBound(q index.Box) int {
	n := 0
	for _, g := range v {
		n += g.matchBound(q)
	}
	return n
}

func (v liveData[T]) countHits(q index.Box) int {
	n := 0
	for _, g := range v {
		n += g.countHits(q)
	}
	return n
}

func (v liveData[T]) appendHits(q index.Box, out []int32) []int32 {
	base := int32(0)
	for _, g := range v {
		out = g.search(q, base, out)
		base += int32(g.n)
	}
	return out
}

// encode appends the records at hits to e, each from its segment.
func (v liveData[T]) encode(s schema[T], e *encoded, hits []int32) error {
	base := int32(0)
	for _, g := range v {
		end := base + int32(g.n)
		n := 0
		for n < len(hits) && hits[n] < end {
			n++
		}
		if err := g.encode(s, e, hits[:n], base); err != nil {
			return err
		}
		hits, base = hits[n:], end
	}
	return nil
}

// matcher is the searchable form of a fetched partition: a base alone or a
// live view over it.
type matcher[T any] interface {
	Partition
	// matchBound bounds the number of hits appendHits appends for q from
	// the run index alone, so the hit slice is allocated once.
	matchBound(q index.Box) int
	// countHits counts the records intersecting q.
	countHits(q index.Box) int
	// appendHits appends the indices of the records intersecting q to out,
	// ascending, which is the merge-on-read order.
	appendHits(q index.Box, out []int32) []int32
}

// appendRecords appends the records of m at hits, ascending indices from
// its appendHits, to e in their wire form. It dispatches on the concrete
// view, so e does not escape through an interface call.
func (s schema[T]) appendRecords(e *encoded, m matcher[T], hits []int32) error {
	switch v := m.(type) {
	case *segment[T]:
		return v.encode(s, e, hits, 0)
	case liveData[T]:
		return v.encode(s, e, hits)
	}
	return fmt.Errorf("stdata: schema %s: records of a %T", s.spec.Name, m)
}

// encoded is a reply's records in their JSON wire form. A record from a
// switched segment is a span of its arena, set in recs directly; the rest
// are appended into one buffer — the same few allocations whatever the
// record count — which can move while it grows, so they are cut from it
// only once encoding ends (records).
type encoded struct {
	recs []json.RawMessage
	buf  []byte
	// ends holds, per record, its end in buf, or -1 for an arena span; nil
	// until the first record is encoded.
	ends []int
	// pay is the payload reader records are joined through, one per reply.
	pay *codec.Reader
}

// span appends a record already in its wire form.
func (e *encoded) span(rec json.RawMessage) {
	e.recs = append(e.recs, rec)
	if e.ends != nil {
		e.ends = append(e.ends, -1)
	}
}

// encodeRecord appends rec's wire form to e. The first encoded record's
// size sizes the buffer for the rest of cap(e.recs) records, with an
// eighth to spare for the variable-width numbers and strings.
func (s schema[T]) encodeRecord(e *encoded, rec *T) error {
	first := len(e.buf) == 0
	var err error
	if e.buf, err = s.spec.AppendJSON(e.buf, *rec); err != nil {
		return fmt.Errorf("stdata: schema %s: encode record: %w", s.spec.Name, err)
	}
	if first {
		e.buf = slices.Grow(e.buf, len(e.buf)*(cap(e.recs)-len(e.recs)-1)*9/8)
	}
	if e.ends == nil {
		e.ends = make([]int, len(e.recs), cap(e.recs))
		for i := range e.ends {
			e.ends[i] = -1
		}
	}
	e.recs = append(e.recs, nil)
	e.ends = append(e.ends, len(e.buf))
	return nil
}

// records cuts the encoded records from e's buffer, once it has stopped
// moving, each capped at its own end so an append to one record cannot
// overwrite the next, and returns every record in order.
func (e *encoded) records() []json.RawMessage {
	start := 0
	for i, end := range e.ends {
		if end >= 0 {
			e.recs[i] = e.buf[start:end:end]
			start = end
		}
	}
	return e.recs
}
