package index

import (
	"sort"

	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

// ZCurve2D maps 2-d points in a bounded domain to a Z-order (Morton) key at
// a fixed resolution. The GeoMesa-like baseline uses it as its entry-level
// spatial index (standing in for GeoMesa's XZ2 curve): entries are sorted by
// key on disk and a range query is answered by scanning the key ranges whose
// cells intersect the query window.
type ZCurve2D struct {
	domain geom.MBR
	bits   uint // bits per dimension, <= 31
}

// NewZCurve2D creates a curve over domain with the given per-dimension
// resolution in bits (clamped to [1, 31]).
func NewZCurve2D(domain geom.MBR, bits uint) *ZCurve2D {
	if bits < 1 {
		bits = 1
	}
	if bits > 31 {
		bits = 31
	}
	return &ZCurve2D{domain: domain, bits: bits}
}

// cells returns the number of grid cells per dimension.
func (z *ZCurve2D) cells() uint64 { return 1 << z.bits }

// Key returns the Morton key of p. Points outside the domain clamp to the
// border cells.
func (z *ZCurve2D) Key(p geom.Point) uint64 {
	ix := z.cellIndex(p.X, z.domain.MinX, z.domain.MaxX)
	iy := z.cellIndex(p.Y, z.domain.MinY, z.domain.MaxY)
	return interleave2(ix, iy)
}

func (z *ZCurve2D) cellIndex(v, lo, hi float64) uint64 {
	if hi <= lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		f = 1 - 1e-12
	}
	return uint64(f * float64(z.cells()))
}

// KeyRange is a closed interval of curve keys.
type KeyRange struct {
	Lo, Hi uint64
}

// Ranges returns a sorted, merged set of key ranges covering every cell that
// intersects query. It recursively subdivides the quadrant hierarchy: fully
// covered quadrants emit one contiguous range, partially covered ones
// recurse, down to maxRecursion levels after which partial quadrants are
// emitted whole (a superset, as range scans tolerate false positives).
func (z *ZCurve2D) Ranges(query geom.MBR, maxRecursion uint) []KeyRange {
	if maxRecursion == 0 || maxRecursion > z.bits {
		maxRecursion = z.bits
	}
	query = query.Intersection(z.domain)
	if query.IsEmpty() {
		return nil
	}
	var out []KeyRange
	var walk func(prefix uint64, level uint, cell geom.MBR)
	walk = func(prefix uint64, level uint, cell geom.MBR) {
		if !cell.Intersects(query) {
			return
		}
		span := uint64(1) << (2 * (z.bits - level)) // keys under this quadrant
		base := prefix << (2 * (z.bits - level))
		if query.Contains(cell) || level >= maxRecursion {
			out = append(out, KeyRange{Lo: base, Hi: base + span - 1})
			return
		}
		midX := (cell.MinX + cell.MaxX) / 2
		midY := (cell.MinY + cell.MaxY) / 2
		// Quadrant order must follow Morton order: (y,x) bit pairs.
		walk(prefix<<2|0, level+1, geom.MBR{MinX: cell.MinX, MinY: cell.MinY, MaxX: midX, MaxY: midY})
		walk(prefix<<2|1, level+1, geom.MBR{MinX: midX, MinY: cell.MinY, MaxX: cell.MaxX, MaxY: midY})
		walk(prefix<<2|2, level+1, geom.MBR{MinX: cell.MinX, MinY: midY, MaxX: midX, MaxY: cell.MaxY})
		walk(prefix<<2|3, level+1, geom.MBR{MinX: midX, MinY: midY, MaxX: cell.MaxX, MaxY: cell.MaxY})
	}
	walk(0, 0, z.domain)
	return mergeRanges(out)
}

// mergeRanges sorts and coalesces adjacent or overlapping ranges.
func mergeRanges(rs []KeyRange) []KeyRange {
	if len(rs) == 0 {
		return rs
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// interleave2 interleaves the low 31 bits of x and y: y gets odd bit
// positions, x even — matching the quadrant order in Ranges.
func interleave2(x, y uint64) uint64 {
	return spread(x) | spread(y)<<1
}

// spread inserts a zero bit between every bit of v.
func spread(v uint64) uint64 {
	v &= 0x7fffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// ZCurve3D extends the 2-d curve with a time dimension by pairing a 2-d
// Morton key with a coarse time bucket, mirroring GeoMesa's (time-bin,
// XZ2-key) composite index layout. Keys sort first by time bucket, then by
// space.
type ZCurve3D struct {
	space  *ZCurve2D
	window tempo.Duration
	binSec int64
}

// NewZCurve3D creates a composite curve over the spatial domain and time
// window, bucketing time into bins of binSec seconds.
func NewZCurve3D(domain geom.MBR, window tempo.Duration, bits uint, binSec int64) *ZCurve3D {
	if binSec < 1 {
		binSec = 1
	}
	return &ZCurve3D{space: NewZCurve2D(domain, bits), window: window, binSec: binSec}
}

// Key returns the composite key of a point at instant t.
func (z *ZCurve3D) Key(p geom.Point, t int64) uint64 {
	bin := z.timeBin(t)
	return bin<<(2*z.space.bits) | z.space.Key(p)
}

func (z *ZCurve3D) timeBin(t int64) uint64 {
	if t < z.window.Start {
		return 0
	}
	return uint64((t - z.window.Start) / z.binSec)
}

// Ranges returns composite key ranges covering the ST query window.
func (z *ZCurve3D) Ranges(space geom.MBR, dur tempo.Duration, maxRecursion uint) []KeyRange {
	spatial := z.space.Ranges(space, maxRecursion)
	if len(spatial) == 0 {
		return nil
	}
	dur = dur.Intersection(z.window)
	if dur.IsEmpty() {
		return nil
	}
	loBin, hiBin := z.timeBin(dur.Start), z.timeBin(dur.End)
	shift := 2 * z.space.bits
	out := make([]KeyRange, 0, int(hiBin-loBin+1)*len(spatial))
	for bin := loBin; bin <= hiBin; bin++ {
		for _, r := range spatial {
			out = append(out, KeyRange{Lo: bin<<shift | r.Lo, Hi: bin<<shift | r.Hi})
		}
	}
	return mergeRanges(out)
}
