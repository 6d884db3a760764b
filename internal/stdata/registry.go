package stdata

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"st4ml/internal/codec"
	"st4ml/internal/engine"
	"st4ml/internal/index"
	"st4ml/internal/partition"
	"st4ml/internal/pointpat"
	"st4ml/internal/selection"
	"st4ml/internal/storage"
	"st4ml/internal/summary"
	"st4ml/internal/trace"
)

// This file is the dataset registry: every standard schema's typed
// machinery (codec, ST box, CSV reader, JSON encoder, selection entry
// points) bundled behind an untyped Schema interface, so the CLI commands
// and the serving daemon dispatch on a dataset name instead of each
// repeating a nyc|porto|air|osm type switch.

// Spec is the typed bundle for one standard schema.
type Spec[T any] struct {
	// Name is the registry key ("nyc", "porto", ...).
	Name string
	// Codec is the record's binary codec.
	Codec codec.Codec[T]
	// BoxOf extracts a record's ST box.
	BoxOf func(T) index.Box
	// CSV parses the schema's CSV layout; nil when the schema has none.
	CSV func(io.Reader) ([]T, error)
	// Spatial2D marks schemas with no temporal extent (OSM POIs), which
	// plan with a 2-d STR partitioner instead of T-STR.
	Spatial2D bool
	// Value extracts the payload attribute the approximate tier digests
	// (quantile queries); nil marks schemas without one — approximate
	// counts and histograms still work, quantiles are rejected.
	Value func(T) (float64, bool)
	// IDOf extracts the record's entity id for distinct-ID sketches.
	IDOf func(T) int64
	// AppendJSON appends the record's JSON wire form to dst — byte for byte
	// json.Marshal(rec), failing exactly where json.Marshal fails — the one
	// encoder every served record goes through. Required.
	AppendJSON func(dst []byte, rec T) ([]byte, error)
}

// QueryOptions tunes one served query.
type QueryOptions struct {
	// Records returns the matching records, each in its JSON wire form, in
	// addition to the stats; Limit caps how many (0 = all). A record from a
	// segment past break-even is a span of the segment's reply arena, the
	// rest are appended by the schema's AppendJSON into one buffer per
	// reply. Either way the bytes are shared, never written: a caller that
	// keeps a result past the query copies them out (QueryResult.Own).
	// Without Records a query only counts the run index's hits.
	Records bool
	Limit   int
	// Partitions, when non-nil, restricts the query to exactly these
	// partition ids — the sub-query path of a cluster shard, whose router
	// has already pruned against the metadata index. Nil prunes from the
	// window locally. An empty non-nil slice queries nothing.
	Partitions []int
	// PerPartition returns per-partition result chunks (QueryResult.Parts)
	// instead of the flat Records slice — the unit a scatter-gather merge
	// de-duplicates on. Record encoding still honors Records and Limit.
	PerPartition bool
}

// QueryResult is one selection's outcome in transportable form.
type QueryResult struct {
	Stats selection.Stats `json:"stats"`
	// Records, when requested, holds the matches in deterministic
	// (partition, record) order.
	Records []json.RawMessage `json:"records,omitempty"`
	// Parts, on PerPartition queries, holds one chunk per queried
	// partition in request order; Records is then left nil.
	Parts []PartResult `json:"parts,omitempty"`
}

// PartResult is one partition's chunk of a per-partition query: the
// partition id is the chunk's identity (each record belongs to exactly one
// partition per dataset generation), which is what makes cross-process
// merges exactly-once — a chunk delivered twice by a hedged retry is
// dropped by id.
type PartResult struct {
	ID       int               `json:"id"`
	Selected int64             `json:"selected"`
	Records  []json.RawMessage `json:"records,omitempty"`
}

// Partition is a decoded partition file pinned in memory together with its
// index — the unit the serving daemon's cache holds.
type Partition interface {
	// Len is the record count.
	Len() int
	// SizeBytes is the resident size, the unit of the serving cache's byte
	// budget, with no byte counted twice: per segment, until it switches
	// to its reply arena, its run boxes (and an extended schema's record
	// boxes) plus its decoded columns and their dictionary; after the
	// switch its run index — with the coordinate columns a point schema's
	// index reads, all the segment keeps of its columns — plus the arena
	// and 4 bytes of offset per record. It changes once per segment, at
	// the switch.
	SizeBytes() int64
	// ArenaBytes is the size of the reply arenas the partition's segments
	// have switched to; 0 before any has.
	ArenaBytes() int64
}

// Querier runs one-shot window selections against an on-disk dataset, the
// stquery path (metadata re-read per call; see Schema.ServeQuery for the
// daemon's cached path).
type Querier interface {
	// Select scans every partition (the native path).
	Select(dir string, w selection.Window) (selection.Stats, error)
	// SelectPruned consults the metadata index first (§4.1).
	SelectPruned(dir string, w selection.Window) (selection.Stats, error)
}

// Schema is the untyped view of a Spec, dispatchable by name.
type Schema interface {
	// SchemaName returns the registry key.
	SchemaName() string
	// DefaultPlanner returns the schema's ingest partitioner at the given
	// T-STR granularities (2-d schemas fold both into an STR cell count).
	DefaultPlanner(gt, gs int) partition.Planner
	// NewQuerier binds a one-shot selection runner to ctx and cfg.
	NewQuerier(ctx *engine.Context, cfg selection.Config) Querier
	// Ingest ST-partitions recs — a []T of the schema's record type — with
	// planner and persists them under dir.
	Ingest(ctx *engine.Context, recs any, dir string, planner partition.Planner,
		opts selection.IngestOptions) (*storage.Metadata, error)
	// ReadCSV parses records in the schema's CSV layout.
	ReadCSV(r io.Reader) (any, error)
	// Append adds recs — a []T of the schema's record type — to the live
	// dataset at dir through the storage delta layer (no base rewrite);
	// batchID, when non-empty, makes retries exactly-once. It returns the
	// dataset generation after the append. A *storage.HookError comes back
	// WITH the committed generation: the append is durable, only a commit
	// hook failed — callers must not replay the batch.
	Append(recs any, dir, batchID string) (int64, error)
	// ReadDelta decodes one committed delta file of the dataset at dir,
	// returning each record's ST box alongside its JSON wire form — the
	// same AppendJSON bytes ServeQuery replies with, which is what lets a
	// push stream stay byte-identical to a batch re-query.
	ReadDelta(dir string, dm storage.DeltaMeta) ([]index.Box, []json.RawMessage, error)
	// Compact runs one compaction pass over the dataset at dir, folding
	// delta files back into rewritten base partitions; a dataset holding
	// legacy v1/v2 files is refused with storage.ErrLegacyFormat. Every
	// rewritten partition that had a live summary sidecar gets a fresh
	// one, built with the default summary config (opts.Summarizer is
	// always the schema's).
	Compact(dir string, opts storage.CompactOptions) (storage.CompactStats, error)
	// LoadPartition reads and decodes partition id of the dataset at dir as
	// its live view — LiveView over LoadBase and a LoadDelta per attached
	// delta, uncached — plus the storage layer's block-granularity read
	// accounting summed over every file it read.
	LoadPartition(dir string, meta *storage.Metadata, id int) (Partition, storage.ReadStats, error)
	// LoadBase reads and decodes partition id's base file alone into its
	// columns, pinned with a run index of one box per run of 16
	// consecutive records (the file is Z-clustered, so run boxes are
	// tight) that reads a point schema's records from their lon, lat and
	// t columns and holds any other schema's record boxes, which the
	// storage reader returns beside the columns; no record is built until
	// a query encodes it. Base files are immutable, so the serving cache
	// keys the handle by file name and appends never evict it.
	LoadBase(dir string, meta *storage.Metadata, id int) (Partition, storage.ReadStats, error)
	// LoadDelta decodes one committed delta file, pinned the same way as a
	// base.
	LoadDelta(dir string, dm storage.DeltaMeta) (Partition, storage.ReadStats, error)
	// LiveView composes a handle from LoadBase and that partition's deltas
	// from LoadDelta, in manifest order, into the live partition ServeQuery
	// searches: base hits in ascending record order, then each delta's hits
	// in file order — exactly ReadPartitionPruned's merge order. It copies
	// no records; with no deltas the base itself is the view.
	LiveView(base Partition, deltas []Partition) (Partition, error)
	// ServeQuery is the daemon's selection path: partitions surviving the
	// metadata prune are fetched through fetch — the serving cache's
	// get-or-load hook, which returns a LiveView over cached segments — and
	// searched run box first, record box second, one engine task per
	// partition on the shared context. A nil fetch loads every
	// partition from disk with LoadPartition.
	ServeQuery(ctx *engine.Context, dir string, meta *storage.Metadata,
		fetch func(id int) (Partition, error), w selection.Window,
		opts QueryOptions) (QueryResult, error)
	// SelectPoints runs the pruned window selection and projects each match
	// onto its pattern observation — the record's ST box center — the input
	// shape of the point-pattern statistics (stquery -pointpat).
	SelectPoints(ctx *engine.Context, dir string,
		w selection.Window) ([]pointpat.Point, selection.Stats, error)
	// ApproxQuery answers an aggregate from summary sidecars with a
	// deterministic error envelope (see internal/summary). Exactly one of
	// the returns is non-nil on success: a finalized Result, or — when
	// req.Partial — the mergeable Partial a cluster shard ships to its
	// router. A dataset holding legacy v1/v2 files is refused with
	// storage.ErrLegacyFormat, its sidecars unread.
	ApproxQuery(ctx *engine.Context, dir string, meta *storage.Metadata,
		w selection.Window, req ApproxRequest) (*summary.Result, *summary.Partial, error)
	// BuildSummaries backfills summary sidecars for every base partition
	// lacking a current one, committing them through the manifest.
	BuildSummaries(dir string, cfg summary.Config) (int, error)
}

var registry = map[string]Schema{}

func register[T any](s Spec[T]) {
	if s.AppendJSON == nil {
		panic("stdata: schema " + s.Name + " registered without an AppendJSON encoder")
	}
	registry[s.Name] = schema[T]{s}
}

func init() {
	register(Spec[EventRec]{Name: "nyc", Codec: EventRecC, BoxOf: EventRec.Box, CSV: ReadEventsCSV,
		Value:      func(e EventRec) (float64, bool) { return float64(e.Time), true },
		IDOf:       func(e EventRec) int64 { return e.ID },
		AppendJSON: appendEventJSON})
	register(Spec[TrajRec]{Name: "porto", Codec: TrajRecC, BoxOf: TrajRec.Box, CSV: ReadTrajsCSV,
		Value:      func(t TrajRec) (float64, bool) { return float64(len(t.Points)), true },
		IDOf:       func(t TrajRec) int64 { return t.ID },
		AppendJSON: appendTrajJSON})
	register(Spec[AirRec]{Name: "air", Codec: AirRecC, BoxOf: AirRec.Box,
		Value:      func(a AirRec) (float64, bool) { return a.Indices[0], true },
		IDOf:       func(a AirRec) int64 { return a.StationID },
		AppendJSON: appendAirJSON})
	register(Spec[POIRec]{Name: "osm", Codec: POIRecC, BoxOf: POIRec.Box, Spatial2D: true,
		IDOf:       func(p POIRec) int64 { return p.ID },
		AppendJSON: appendPOIJSON})
}

// Lookup returns the schema registered under name.
func Lookup(name string) (Schema, bool) {
	s, ok := registry[name]
	return s, ok
}

// SchemaNames lists the registered schema names, sorted.
func SchemaNames() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// schema adapts a typed Spec to the untyped Schema interface.
type schema[T any] struct{ spec Spec[T] }

func (s schema[T]) SchemaName() string { return s.spec.Name }

func (s schema[T]) DefaultPlanner(gt, gs int) partition.Planner {
	if s.spec.Spatial2D {
		return partition.STR2D{N: gt * gs}
	}
	return partition.TSTR{GT: gt, GS: gs}
}

func (s schema[T]) NewQuerier(ctx *engine.Context, cfg selection.Config) Querier {
	return querier[T]{selection.New(ctx, s.spec.Codec, s.spec.BoxOf, nil, cfg)}
}

func (s schema[T]) Ingest(
	ctx *engine.Context, recs any, dir string, planner partition.Planner,
	opts selection.IngestOptions,
) (*storage.Metadata, error) {
	typed, ok := recs.([]T)
	if !ok {
		return nil, fmt.Errorf("stdata: schema %s: ingest of %T, want []%T",
			s.spec.Name, recs, *new(T))
	}
	return selection.Ingest(engine.Parallelize(ctx, typed, 0), dir,
		s.spec.Codec, s.spec.BoxOf, planner, opts)
}

func (s schema[T]) Append(recs any, dir, batchID string) (int64, error) {
	typed, ok := recs.([]T)
	if !ok {
		return 0, fmt.Errorf("stdata: schema %s: append of %T, want []%T",
			s.spec.Name, recs, *new(T))
	}
	mf, err := storage.AppendDelta(dir, s.spec.Codec, typed, s.spec.BoxOf,
		storage.AppendOptions{BatchID: batchID})
	if mf == nil {
		return 0, err
	}
	// A non-nil manifest with a non-nil error is a *storage.HookError: the
	// append committed, so the generation flows back with it.
	return mf.Generation, err
}

// ReadDelta takes each pushed record's box from BoxOf of the row it
// encodes, so the reader is asked for none.
func (s schema[T]) ReadDelta(dir string, dm storage.DeltaMeta) ([]index.Box, []json.RawMessage, error) {
	cols, _, _, err := storage.ReadDelta(dir, dm, s.spec.Codec, nil)
	if err != nil {
		return nil, nil, err
	}
	rows, err := s.spec.Codec.Col.Rows(cols)
	if err != nil {
		return nil, nil, err
	}
	boxes := make([]index.Box, len(rows))
	e := encoded{recs: make([]json.RawMessage, 0, len(rows))}
	for i := range rows {
		boxes[i] = s.spec.BoxOf(rows[i])
		if err := s.encodeRecord(&e, &rows[i]); err != nil {
			return nil, nil, err
		}
	}
	return boxes, e.records(), nil
}

func (s schema[T]) SelectPoints(
	ctx *engine.Context, dir string, w selection.Window,
) ([]pointpat.Point, selection.Stats, error) {
	sel := selection.New(ctx, s.spec.Codec, s.spec.BoxOf, nil, selection.Config{Index: true})
	rdd, st, err := sel.SelectPruned(dir, w)
	if err != nil {
		return nil, st, err
	}
	boxOf := s.spec.BoxOf
	pts := engine.Map(rdd, func(rec T) pointpat.Point {
		c := boxOf(rec).Center()
		return pointpat.Point{X: c[0], Y: c[1], T: int64(c[2])}
	}).Collect()
	return pts, st, nil
}

func (s schema[T]) Compact(dir string, opts storage.CompactOptions) (storage.CompactStats, error) {
	opts.Summarizer = summary.NewBuilder(s.spec.BoxOf, s.spec.Value, s.idOf(), summary.Config{})
	return storage.Compact(dir, s.spec.Codec, s.spec.BoxOf, opts)
}

func (s schema[T]) ReadCSV(r io.Reader) (any, error) {
	if s.spec.CSV == nil {
		return nil, fmt.Errorf("stdata: schema %s has no CSV reader", s.spec.Name)
	}
	return s.spec.CSV(r)
}

func (s schema[T]) LoadPartition(dir string, meta *storage.Metadata, id int) (Partition, storage.ReadStats, error) {
	base, st, err := s.LoadBase(dir, meta, id)
	if err != nil {
		return nil, st, err
	}
	var deltas []Partition
	for _, dm := range meta.Deltas(id) {
		d, dst, err := s.LoadDelta(dir, dm)
		if err != nil {
			return nil, st, err
		}
		st.Add(dst)
		deltas = append(deltas, d)
	}
	v, err := s.LiveView(base, deltas)
	return v, st, err
}

func (s schema[T]) LoadBase(dir string, meta *storage.Metadata, id int) (Partition, storage.ReadStats, error) {
	// The pinned handle serves arbitrary later windows, so the whole file is
	// decoded (no block pruning); the stats still report the block and byte
	// volume the load cost.
	cols, boxes, st, err := storage.ReadBase(dir, meta, id, s.spec.Codec, s.pinBoxOf())
	if err != nil {
		return nil, st, err
	}
	return s.pin(cols, boxes, false), st, nil
}

func (s schema[T]) LoadDelta(dir string, dm storage.DeltaMeta) (Partition, storage.ReadStats, error) {
	cols, boxes, st, err := storage.ReadDelta(dir, dm, s.spec.Codec, s.pinBoxOf())
	if err != nil {
		return nil, st, err
	}
	return s.pin(cols, boxes, true), st, nil
}

func (s schema[T]) LiveView(base Partition, deltas []Partition) (Partition, error) {
	b, ok := base.(*segment[T])
	if !ok || b.delta {
		return nil, fmt.Errorf("stdata: schema %s: live view over a %T base", s.spec.Name, base)
	}
	if len(deltas) == 0 {
		return b, nil
	}
	v := liveData[T]{b}
	for _, p := range deltas {
		d, ok := p.(*segment[T])
		if !ok || !d.delta {
			return nil, fmt.Errorf("stdata: schema %s: live view over a %T delta", s.spec.Name, p)
		}
		v = append(v, d)
	}
	return v, nil
}

func (s schema[T]) ServeQuery(
	ctx *engine.Context, dir string, meta *storage.Metadata,
	fetch func(id int) (Partition, error), w selection.Window,
	opts QueryOptions,
) (QueryResult, error) {
	if fetch == nil {
		fetch = func(id int) (Partition, error) {
			p, _, err := s.LoadPartition(dir, meta, id)
			return p, err
		}
	}
	ids := opts.Partitions
	subquery := ids != nil
	if subquery {
		for _, id := range ids {
			if id < 0 || id >= meta.NumPartitions() {
				return QueryResult{}, fmt.Errorf("stdata: schema %s: subquery partition %d out of range [0,%d)",
					s.spec.Name, id, meta.NumPartitions())
			}
		}
	} else {
		ids = meta.Prune(w.Space, w.Time)
	}
	stats := selection.Stats{
		TotalPartitions:  meta.NumPartitions(),
		LoadedPartitions: len(ids),
	}
	for _, id := range ids {
		stats.LoadedRecords += meta.PartitionCount(id)
		stats.LoadedBytes += meta.PartitionBytes(id)
	}
	var sp *trace.Span
	if subquery {
		// A sub-query span suppresses the planning attrs — the router's
		// scatter span carries the prune outcome exactly once for the whole
		// query — and keeps only what this shard executed, so a stitched
		// explain never double-counts partitions.
		sp = ctx.StartSpan(trace.SpanSelect,
			trace.Str("dataset", meta.Name),
			trace.Int("partitions", int64(len(ids))))
	} else {
		sp = ctx.StartSpan(trace.SpanSelect,
			trace.Str("dataset", meta.Name),
			trace.Int("total_partitions", int64(stats.TotalPartitions)),
			trace.Int("kept_partitions", int64(stats.LoadedPartitions)),
			trace.Int("loaded_records", stats.LoadedRecords),
			trace.Int("loaded_bytes", stats.LoadedBytes))
	}
	res := QueryResult{Stats: stats}
	if len(ids) == 0 {
		sp.End(trace.Int("selected", 0))
		return res, nil
	}

	// One engine task per surviving partition: fetch the pinned view and
	// search its run index, for the hits' indices when the query returns
	// records and for their count when it does not. Fetch failures surface
	// as task errors through the engine's retry machinery. The stage is
	// traced under the select span.
	sctx := ctx.WithSpan(sp)
	q, records := w.Box(), opts.Records
	found := make([]partHits, len(ids))
	err := engine.Try(func() {
		rdd := engine.Generate(sctx, "serve:"+meta.Name, len(ids), func(p int) []int32 {
			part, err := fetch(ids[p])
			if err != nil {
				panic(err)
			}
			m, ok := part.(matcher[T])
			if !ok {
				panic(fmt.Sprintf("stdata: schema %s: cached partition has type %T", s.spec.Name, part))
			}
			if !records {
				found[p].count.Store(int64(m.countHits(q)))
				return nil
			}
			hits := m.appendHits(q, make([]int32, 0, m.matchBound(q)))
			found[p].view.Store(part)
			found[p].count.Store(int64(len(hits)))
			return hits
		})
		rdd.ForeachPartition(func(p int, in []int32) { found[p].hits = in })
	})
	if err != nil {
		sp.End(trace.Str("error", err.Error()))
		return QueryResult{}, err
	}

	for p := range found {
		res.Stats.SelectedRecords += found[p].count.Load()
	}
	sp.End(trace.Int("selected", res.Stats.SelectedRecords))
	limit := opts.Limit
	if limit <= 0 || int64(limit) > res.Stats.SelectedRecords {
		limit = int(res.Stats.SelectedRecords)
	}
	// Per-partition chunks: Selected always counts every match; records
	// cap at limit across the chunks in order — a shard's stream is a
	// subsequence of the global partition-ordered stream, so any record
	// within the global limit survives the local cap and a scatter-gather
	// merge stays byte-identical to single-node serving. The kept records
	// are gathered in one encoded reply, so the flat Records are exactly
	// these chunks flattened (Flatten(parts, limit)).
	var recs []json.RawMessage
	if opts.Records {
		e := encoded{recs: make([]json.RawMessage, 0, limit)}
		for p := range found {
			hits := found[p].hits[:min(len(found[p].hits), limit-len(e.recs))]
			if len(hits) == 0 {
				continue
			}
			if err := s.appendRecords(&e, found[p].view.Load().(matcher[T]), hits); err != nil {
				return QueryResult{}, err
			}
		}
		recs = e.records()
	}
	if !opts.PerPartition {
		res.Records = recs
		return res, nil
	}
	res.Parts = make([]PartResult, len(ids))
	for p, id := range ids {
		res.Parts[p] = PartResult{ID: id, Selected: found[p].count.Load()}
		if n := min(len(found[p].hits), len(recs)); n > 0 {
			res.Parts[p].Records, recs = recs[:n:n], recs[n:]
		}
	}
	return res, nil
}

// partHits is one partition's search outcome in a served query. Its task
// stores view and count atomically, since a speculative duplicate of the
// task may store the same values at once; hits is the committed task's.
type partHits struct {
	view  atomic.Value // the fetched Partition, which the records are read from
	count atomic.Int64
	hits  []int32
}

// Own copies r's records into one buffer of their own, in place, so a
// result kept past its query — a cached reply — keeps no segment's reply
// arena alive.
func (r *QueryResult) Own() {
	size := recordsLen(r.Records)
	for _, pr := range r.Parts {
		size += recordsLen(pr.Records)
	}
	buf := make([]byte, 0, size)
	buf = ownRecords(buf, r.Records)
	for _, pr := range r.Parts {
		buf = ownRecords(buf, pr.Records)
	}
}

func recordsLen(recs []json.RawMessage) int {
	n := 0
	for _, rec := range recs {
		n += len(rec)
	}
	return n
}

// ownRecords appends recs to buf, which has room for them all, and points
// each at its copy.
func ownRecords(buf []byte, recs []json.RawMessage) []byte {
	for i, rec := range recs {
		start := len(buf)
		buf = append(buf, rec...)
		recs[i] = buf[start:len(buf):len(buf)]
	}
	return buf
}

// Flatten is the flat record stream of per-partition chunks: their records
// concatenated in chunk order and cut at limit (<= 0: no cut). It copies
// slice headers only; the records keep pointing where the replies' did. A single node's flat Records are its chunks' records encoded in
// chunk order up to the limit — this stream — and a router's merge is its
// shards' chunks flattened, so the two agree by construction.
func Flatten(parts []PartResult, limit int) []json.RawMessage {
	n := 0
	for _, pr := range parts {
		n += len(pr.Records)
	}
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]json.RawMessage, 0, n)
	for _, pr := range parts {
		if len(out)+len(pr.Records) >= n {
			return append(out, pr.Records[:n-len(out)]...)
		}
		out = append(out, pr.Records...)
	}
	return out
}

// querier adapts a typed Selector to the untyped Querier interface.
type querier[T any] struct{ sel *selection.Selector[T] }

func (q querier[T]) Select(dir string, w selection.Window) (selection.Stats, error) {
	_, st, err := q.sel.Select(dir, w)
	return st, err
}

func (q querier[T]) SelectPruned(dir string, w selection.Window) (selection.Stats, error) {
	_, st, err := q.sel.SelectPruned(dir, w)
	return st, err
}
