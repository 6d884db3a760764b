// Package index provides the in-memory spatial and spatio-temporal indexes
// used across ST4ML: the run index (one box per run of consecutive
// records in record order, used for per-partition selection §3.1 and the
// serving tier's pinned partitions), an R-tree (STR bulk-loaded and
// dynamically insertable, used for conversion acceleration §4.2 and
// map-matching candidate search), and a Z-order/XZ-style space-filling
// curve used by the GeoMesa-like baseline's entry-level on-disk index.
package index

import (
	"math"

	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

// Dims is the dimensionality of index boxes. Lower-dimensional indexes
// (1-d durations, 2-d space) embed into 3-d boxes with zeroed unused axes.
const Dims = 3

// Box is an axis-aligned 3-d box. Axis 0 and 1 are spatial (x = lon,
// y = lat); axis 2 is time in seconds. A Box with Min[i] > Max[i] on any
// axis is empty.
type Box struct {
	Min, Max [Dims]float64
}

// EmptyBox returns the identity element for Union.
func EmptyBox() Box {
	var b Box
	for i := 0; i < Dims; i++ {
		b.Min[i] = math.Inf(1)
		b.Max[i] = math.Inf(-1)
	}
	return b
}

// Box2 embeds a spatial MBR; the time axis is zero.
func Box2(m geom.MBR) Box {
	var b Box
	b.Min[0], b.Max[0] = m.MinX, m.MaxX
	b.Min[1], b.Max[1] = m.MinY, m.MaxY
	return b
}

// Box3 combines a spatial MBR and a temporal interval into an ST box.
func Box3(m geom.MBR, d tempo.Duration) Box {
	b := Box2(m)
	b.Min[2], b.Max[2] = float64(d.Start), float64(d.End)
	return b
}

// BoxOfPoint embeds a 2-d point and instant as a degenerate box: the
// Box3 of the point's MBR and the instant, built as one literal.
func BoxOfPoint(p geom.Point, t int64) Box {
	ft := float64(t)
	return Box{Min: [Dims]float64{p.X, p.Y, ft}, Max: [Dims]float64{p.X, p.Y, ft}}
}

// Spatial extracts the spatial MBR from the box.
func (b Box) Spatial() geom.MBR {
	return geom.MBR{MinX: b.Min[0], MinY: b.Min[1], MaxX: b.Max[0], MaxY: b.Max[1]}
}

// Temporal extracts the time interval from the box.
func (b Box) Temporal() tempo.Duration {
	return tempo.New(int64(b.Min[2]), int64(b.Max[2]))
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	for i := 0; i < Dims; i++ {
		if b.Min[i] > b.Max[i] {
			return true
		}
	}
	return false
}

// Intersects reports whether the boxes share at least one point.
func (b Box) Intersects(o Box) bool {
	for i := 0; i < Dims; i++ {
		if b.Min[i] > o.Max[i] || o.Min[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// Contains reports whether o lies entirely inside b.
func (b Box) Contains(o Box) bool {
	for i := 0; i < Dims; i++ {
		if o.Min[i] < b.Min[i] || o.Max[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the smallest box covering both operands.
func (b Box) Union(o Box) Box {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	var u Box
	for i := 0; i < Dims; i++ {
		u.Min[i] = min(b.Min[i], o.Min[i])
		u.Max[i] = max(b.Max[i], o.Max[i])
	}
	return u
}

// Volume returns the product of the extents (0 for empty boxes). Degenerate
// axes contribute factor 0, so callers comparing enlargement should prefer
// Margin for point data.
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := 0; i < Dims; i++ {
		v *= b.Max[i] - b.Min[i]
	}
	return v
}

// Margin returns the sum of the extents (the L1 "perimeter"), a robust
// enlargement metric for point-heavy data.
func (b Box) Margin() float64 {
	if b.IsEmpty() {
		return 0
	}
	var s float64
	for i := 0; i < Dims; i++ {
		s += b.Max[i] - b.Min[i]
	}
	return s
}

// Center returns the box midpoint on each axis.
func (b Box) Center() [Dims]float64 {
	var c [Dims]float64
	for i := 0; i < Dims; i++ {
		c[i] = (b.Min[i] + b.Max[i]) / 2
	}
	return c
}

// DistanceSq returns the squared Euclidean distance from point p to the box
// (0 if inside).
func (b Box) DistanceSq(p [Dims]float64) float64 {
	var d float64
	for i := 0; i < Dims; i++ {
		if p[i] < b.Min[i] {
			d += (b.Min[i] - p[i]) * (b.Min[i] - p[i])
		} else if p[i] > b.Max[i] {
			d += (p[i] - b.Max[i]) * (p[i] - b.Max[i])
		}
	}
	return d
}
