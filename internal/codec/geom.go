package codec

import (
	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

// Codecs for the geometry and temporal primitives. These are the leaf
// encoders that instance- and record-level codecs compose.

// PointC encodes a geom.Point as two fixed float64s.
var PointC = Codec[geom.Point]{
	Enc: func(w *Writer, p geom.Point) {
		w.PutFloat64(p.X)
		w.PutFloat64(p.Y)
	},
	Dec: func(r *Reader) geom.Point {
		return geom.Point{X: r.Float64(), Y: r.Float64()}
	},
}

// MBRC encodes a geom.MBR as four fixed float64s.
var MBRC = Codec[geom.MBR]{
	Enc: func(w *Writer, b geom.MBR) {
		w.PutFloat64(b.MinX)
		w.PutFloat64(b.MinY)
		w.PutFloat64(b.MaxX)
		w.PutFloat64(b.MaxY)
	},
	Dec: func(r *Reader) geom.MBR {
		return geom.MBR{MinX: r.Float64(), MinY: r.Float64(), MaxX: r.Float64(), MaxY: r.Float64()}
	},
}

// DurationC encodes a tempo.Duration as two varints.
var DurationC = Codec[tempo.Duration]{
	Enc: func(w *Writer, d tempo.Duration) {
		w.PutVarint(d.Start)
		w.PutVarint(d.End)
	},
	Dec: func(r *Reader) tempo.Duration {
		return tempo.Duration{Start: r.Varint(), End: r.Varint()}
	},
}
