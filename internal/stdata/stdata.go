// Package stdata defines ST4ML's standard on-disk record schemas — the
// STEvent/STTraj-style structures of §3.1 that datasets are transformed into
// during preprocessing — together with their binary codecs and instance
// conversions. The synthetic generators in package datagen produce these
// records; the selectors, baselines, and benchmarks consume them.
package stdata

import (
	"fmt"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
	"st4ml/internal/instance"
	"st4ml/internal/tempo"
)

// EventRec is a raw point event record: the [lon, lat, time, auxInfo]
// schema of the NYC dataset.
type EventRec struct {
	ID   int64
	Loc  geom.Point
	Time int64
	Aux  string
}

// Box returns the record's ST box.
func (e EventRec) Box() index.Box { return index.BoxOfPoint(e.Loc, e.Time) }

// ToEvent converts the record to an ST4ML event instance.
func (e EventRec) ToEvent() instance.Event[geom.Point, string, int64] {
	return instance.NewEvent(e.Loc, tempo.Instant(e.Time), e.Aux, e.ID)
}

// EventRecC is the binary codec for EventRec. Its columnar schema maps
// every field onto a shared column (Aux is the dictionary-friendly string
// attribute), leaving an empty payload; events are point records, so the
// v3 reader can filter them on the decoded columns.
var EventRecC = codec.Codec[EventRec]{
	Enc: func(w *codec.Writer, e EventRec) {
		w.PutVarint(e.ID)
		codec.PointC.Enc(w, e.Loc)
		w.PutVarint(e.Time)
		w.PutString(e.Aux)
	},
	Dec: func(r *codec.Reader) EventRec {
		return EventRec{
			ID:   r.Varint(),
			Loc:  codec.PointC.Dec(r),
			Time: r.Varint(),
			Aux:  r.String(),
		}
	},
	Col: &codec.Columnar[EventRec]{
		Point:  true,
		HasStr: true,
		Split: func(e EventRec, b *codec.ColBlock) {
			b.IDs = append(b.IDs, e.ID)
			b.Lon = append(b.Lon, e.Loc.X)
			b.Lat = append(b.Lat, e.Loc.Y)
			b.T = append(b.T, e.Time)
			b.Str = append(b.Str, e.Aux)
		},
		Join: func(b *codec.ColBlock, i int, _ *codec.Reader) EventRec {
			return EventRec{
				ID:   b.IDs[i],
				Loc:  geom.Pt(b.Lon[i], b.Lat[i]),
				Time: b.T[i],
				Aux:  b.StrAt(i),
			}
		},
	},
}

// TrajRec is a raw trajectory record: the [tripId, Array((lon, lat)),
// startTime] schema of the Porto dataset, with per-point times.
type TrajRec struct {
	ID     int64
	Points []geom.Point
	Times  []int64
}

// Box returns the record's ST box.
func (t TrajRec) Box() index.Box {
	return index.Box3(trajMBR(geom.EmptyMBR(), t.Points...), trajSpan(tempo.Empty(), t.Times...))
}

// trajMBR and trajSpan fold trajectory samples into the spatial and the
// temporal half of its ST box: TrajRec.Box folds its whole sample slices,
// the columnar Extent each sample as it walks the payload. Both fold
// through these two, so the box the v3 reader prunes a stored trajectory
// by is bit for bit the box selection filters the decoded record by.
func trajMBR(m geom.MBR, pts ...geom.Point) geom.MBR {
	for _, p := range pts {
		m = m.ExpandToPoint(p)
	}
	return m
}

func trajSpan(d tempo.Duration, ts ...int64) tempo.Duration {
	for _, t := range ts {
		d = d.ExpandTo(t)
	}
	return d
}

// trajCount reads a columnar trajectory's point count off the front of its
// payload span. Each point past the first occupies at least 17 payload
// bytes (two float64s and a varint time delta), so an impossible count is
// corruption, caught before anything is allocated or looped over.
func trajCount(pay *codec.Reader) int {
	n := int(pay.Uvarint())
	if n < 0 || (n > 1 && (n-1) > pay.Remaining()/17) {
		panic(codec.ErrCorrupt{Off: 0})
	}
	return n
}

// ToTrajectory converts the record to an ST4ML trajectory instance.
func (t TrajRec) ToTrajectory() instance.Trajectory[instance.Unit, int64] {
	entries := make([]instance.Entry[geom.Point, instance.Unit], len(t.Points))
	for i := range t.Points {
		entries[i] = instance.Entry[geom.Point, instance.Unit]{
			Spatial:  t.Points[i],
			Temporal: tempo.Instant(t.Times[i]),
		}
	}
	return instance.NewTrajectory(entries, t.ID)
}

// TrajRecC is the binary codec for TrajRec. Its columnar schema puts the
// first sample on the shared columns (a summary, not the full extent —
// Point stays false) and the rest in the payload, with per-point times
// delta-encoded against their predecessor. Its Extent walks that payload
// without allocating, so a windowed read builds only the trajectories
// whose box meets a window.
var TrajRecC = codec.Codec[TrajRec]{
	Enc: func(w *codec.Writer, t TrajRec) {
		w.PutVarint(t.ID)
		w.PutUvarint(uint64(len(t.Points)))
		for i := range t.Points {
			codec.PointC.Enc(w, t.Points[i])
			w.PutVarint(t.Times[i])
		}
	},
	Dec: func(r *codec.Reader) TrajRec {
		id := r.Varint()
		n := int(r.Uvarint())
		pts := make([]geom.Point, n)
		times := make([]int64, n)
		for i := 0; i < n; i++ {
			pts[i] = codec.PointC.Dec(r)
			times[i] = r.Varint()
		}
		return TrajRec{ID: id, Points: pts, Times: times}
	},
	Col: &codec.Columnar[TrajRec]{
		Split: func(t TrajRec, b *codec.ColBlock) {
			b.IDs = append(b.IDs, t.ID)
			if len(t.Points) > 0 {
				b.Lon = append(b.Lon, t.Points[0].X)
				b.Lat = append(b.Lat, t.Points[0].Y)
				b.T = append(b.T, t.Times[0])
			} else {
				b.Lon = append(b.Lon, 0)
				b.Lat = append(b.Lat, 0)
				b.T = append(b.T, 0)
			}
			pay := &b.Pay
			pay.PutUvarint(uint64(len(t.Points)))
			for i := 1; i < len(t.Points); i++ {
				pay.PutFloat64(t.Points[i].X)
				pay.PutFloat64(t.Points[i].Y)
				pay.PutVarint(t.Times[i] - t.Times[i-1])
			}
		},
		Join: func(b *codec.ColBlock, i int, pay *codec.Reader) TrajRec {
			n := trajCount(pay)
			pts := make([]geom.Point, n)
			times := make([]int64, n)
			if n > 0 {
				pts[0] = geom.Pt(b.Lon[i], b.Lat[i])
				times[0] = b.T[i]
			}
			for j := 1; j < n; j++ {
				pts[j] = geom.Pt(pay.Float64(), pay.Float64())
				times[j] = times[j-1] + pay.Varint()
			}
			return TrajRec{ID: b.IDs[i], Points: pts, Times: times}
		},
		Extent: func(b *codec.ColBlock, i int, pay *codec.Reader) index.Box {
			n := trajCount(pay)
			mbr, d := geom.EmptyMBR(), tempo.Empty()
			if n > 0 {
				t := b.T[i]
				mbr, d = trajMBR(mbr, geom.Pt(b.Lon[i], b.Lat[i])), trajSpan(d, t)
				for j := 1; j < n; j++ {
					mbr = trajMBR(mbr, geom.Pt(pay.Float64(), pay.Float64()))
					t += pay.Varint()
					d = trajSpan(d, t)
				}
			}
			return index.Box3(mbr, d)
		},
	},
}

// AirRec is a raw air-quality record: station location, time, and six
// indices (PM2.5, PM10, NO2, CO, O3, SO2).
type AirRec struct {
	StationID int64
	Loc       geom.Point
	Time      int64
	Indices   [6]float64
}

// Box returns the record's ST box.
func (a AirRec) Box() index.Box { return index.BoxOfPoint(a.Loc, a.Time) }

// ToEvent converts the record to an event whose value carries the indices.
func (a AirRec) ToEvent() instance.Event[geom.Point, [6]float64, int64] {
	return instance.NewEvent(a.Loc, tempo.Instant(a.Time), a.Indices, a.StationID)
}

// AirRecC is the binary codec for AirRec. Its columnar schema keeps the
// six indices in the payload; station readings are point records.
var AirRecC = codec.Codec[AirRec]{
	Enc: func(w *codec.Writer, a AirRec) {
		w.PutVarint(a.StationID)
		codec.PointC.Enc(w, a.Loc)
		w.PutVarint(a.Time)
		for _, v := range a.Indices {
			w.PutFloat64(v)
		}
	},
	Dec: func(r *codec.Reader) AirRec {
		out := AirRec{StationID: r.Varint(), Loc: codec.PointC.Dec(r), Time: r.Varint()}
		for i := range out.Indices {
			out.Indices[i] = r.Float64()
		}
		return out
	},
	Col: &codec.Columnar[AirRec]{
		Point: true,
		Split: func(a AirRec, b *codec.ColBlock) {
			b.IDs = append(b.IDs, a.StationID)
			b.Lon = append(b.Lon, a.Loc.X)
			b.Lat = append(b.Lat, a.Loc.Y)
			b.T = append(b.T, a.Time)
			for _, v := range a.Indices {
				b.Pay.PutFloat64(v)
			}
		},
		Join: func(b *codec.ColBlock, i int, pay *codec.Reader) AirRec {
			out := AirRec{
				StationID: b.IDs[i],
				Loc:       geom.Pt(b.Lon[i], b.Lat[i]),
				Time:      b.T[i],
			}
			for j := range out.Indices {
				out.Indices[j] = pay.Float64()
			}
			return out
		},
	},
}

// POIRec is a raw point-of-interest record with string attributes (no
// temporal information, like the OSM dataset).
type POIRec struct {
	ID   int64
	Loc  geom.Point
	Type string
}

// Box returns the record's (purely spatial) box.
func (p POIRec) Box() index.Box { return index.Box2(p.Loc.MBR()) }

// ToEvent converts the POI to an event with an empty-time instant.
func (p POIRec) ToEvent() instance.Event[geom.Point, string, int64] {
	return instance.NewEvent(p.Loc, tempo.Instant(0), p.Type, p.ID)
}

// POIRecC is the binary codec for POIRec. Its columnar schema fills the
// time column with the constant 0 — exactly the record's Box2 extent, so
// POIs remain point-filterable — and dictionary-encodes Type.
var POIRecC = codec.Codec[POIRec]{
	Enc: func(w *codec.Writer, p POIRec) {
		w.PutVarint(p.ID)
		codec.PointC.Enc(w, p.Loc)
		w.PutString(p.Type)
	},
	Dec: func(r *codec.Reader) POIRec {
		return POIRec{ID: r.Varint(), Loc: codec.PointC.Dec(r), Type: r.String()}
	},
	Col: &codec.Columnar[POIRec]{
		Point:  true,
		HasStr: true,
		Split: func(p POIRec, b *codec.ColBlock) {
			b.IDs = append(b.IDs, p.ID)
			b.Lon = append(b.Lon, p.Loc.X)
			b.Lat = append(b.Lat, p.Loc.Y)
			b.T = append(b.T, 0)
			b.Str = append(b.Str, p.Type)
		},
		Join: func(b *codec.ColBlock, i int, _ *codec.Reader) POIRec {
			return POIRec{ID: b.IDs[i], Loc: geom.Pt(b.Lon[i], b.Lat[i]), Type: b.StrAt(i)}
		},
	},
}

// AreaRec is a postal-code-like polygonal area.
type AreaRec struct {
	ID    int64
	Shape *geom.Polygon
}

// String identifies the area for reports.
func (a AreaRec) String() string { return fmt.Sprintf("area-%d", a.ID) }
