package index

import "unsafe"

// runLen is the number of consecutive records one run box covers. Stores
// are Z-clustered at ingest and compaction, so a run of neighbours has a
// tight box and a window skips most runs on one test each.
const runLen = 16

// Runs is the run index over records kept in record order: one box per run
// of runLen consecutive records over the records themselves, in one of two
// forms. The box form holds each record's box; the point form holds no
// box per record but reads each record's (lon, lat, t) from its caller's
// coordinate columns, a point record's whole extent. It is built in one
// pass with no sort, and a search tests the records of a run only when the
// run's box meets a window, with Box.Intersects's comparisons at both
// levels — a point record's taken against its coordinates as the
// degenerate box BoxOfPoint would give it — so hits come out in ascending
// record order and equal a linear scan. Selection filters each loaded
// partition through a box form, and the serving tier pins one per cached
// file: a point form over a point file's columns, a box form otherwise.
type Runs struct {
	boxes    []Box
	lon, lat []float64
	t        []int64
	n        int
	runs     []Box
}

// NewRuns builds the box form over boxes, record i's box at boxes[i]. The
// index keeps boxes; the caller must not modify them afterwards.
func NewRuns(boxes []Box) *Runs {
	x := &Runs{boxes: boxes, n: len(boxes), runs: make([]Box, 0, (len(boxes)+runLen-1)/runLen)}
	for lo := 0; lo < len(boxes); lo += runLen {
		// Plain per-axis min/max rather than Box.Union, which skips empty
		// boxes: every record box must lie inside its run's box for the
		// run test to never drop a record Intersects would keep.
		run := boxes[lo]
		for _, b := range boxes[lo+1 : min(lo+runLen, len(boxes))] {
			for a := range run.Min {
				run.Min[a] = min(run.Min[a], b.Min[a])
				run.Max[a] = max(run.Max[a], b.Max[a])
			}
		}
		x.runs = append(x.runs, run)
	}
	return x
}

// NewPointRuns builds the point form over coordinate columns of one
// length, record i at (lon[i], lat[i], float64(t[i])). Each run box is bit
// for bit NewRuns's over the records' BoxOfPoint boxes: the same min and
// max, folded in the same order, so NaN, ±Inf and signed zeros land
// alike. The index keeps the columns; the caller must not modify them
// afterwards.
func NewPointRuns(lon, lat []float64, t []int64) *Runs {
	n := len(lon)
	if len(lat) != n || len(t) != n {
		panic("index: point columns of unequal lengths")
	}
	x := &Runs{lon: lon, lat: lat, t: t, n: n, runs: make([]Box, 0, (n+runLen-1)/runLen)}
	for lo := 0; lo < n; lo += runLen {
		ft := float64(t[lo])
		run := Box{Min: [Dims]float64{lon[lo], lat[lo], ft}, Max: [Dims]float64{lon[lo], lat[lo], ft}}
		for i := lo + 1; i < min(lo+runLen, n); i++ {
			ft = float64(t[i])
			run.Min[0], run.Max[0] = min(run.Min[0], lon[i]), max(run.Max[0], lon[i])
			run.Min[1], run.Max[1] = min(run.Min[1], lat[i]), max(run.Max[1], lat[i])
			run.Min[2], run.Max[2] = min(run.Min[2], ft), max(run.Max[2], ft)
		}
		x.runs = append(x.runs, run)
	}
	return x
}

// SizeBytes is the index's resident size: its run boxes plus the box
// form's record boxes or the point form's coordinate columns
// (ColumnBytes), which it shares with its caller.
func (x *Runs) SizeBytes() int64 {
	return int64(unsafe.Sizeof(Box{}))*int64(cap(x.boxes)+cap(x.runs)) + x.ColumnBytes()
}

// ColumnBytes is the size of the point form's coordinate columns, 8 bytes
// a value of their capacity; 0 for the box form.
func (x *Runs) ColumnBytes() int64 {
	return 8 * int64(cap(x.lon)+cap(x.lat)+cap(x.t))
}

// Bound returns the number of records in the runs whose box intersects q:
// an upper bound on the hits Search reports for q alone, from one test per
// run, which a caller collecting the hits sizes its slice with.
func (x *Runs) Bound(q Box) int {
	n := 0
	for r := range x.runs {
		if x.runs[r].Intersects(q) {
			n += min((r+1)*runLen, x.n) - r*runLen
		}
	}
	return n
}

// pointHit is Box.Intersects of BoxOfPoint(geom.Pt(lon, lat), t) and q,
// made on the coordinates: the same two comparisons per axis.
func pointHit(lon, lat float64, t int64, q *Box) bool {
	ft := float64(t)
	return !(lon > q.Max[0] || q.Min[0] > lon) &&
		!(lat > q.Max[1] || q.Min[1] > lat) &&
		!(ft > q.Max[2] || q.Min[2] > ft)
}

// Search calls fn(i, w) for every record i and window qs[w] whose boxes
// intersect, in ascending record order and, within a record, ascending
// window order. Once fn returns true for a record, the record's remaining
// windows are skipped, so a caller keeping the record in fn keeps it once.
func (x *Runs) Search(qs []Box, fn func(i, w int) bool) {
	if len(qs) == 1 {
		// The serving tier's and most selections' case, without the
		// per-record window loop.
		q := qs[0]
		for r := range x.runs {
			if !x.runs[r].Intersects(q) {
				continue
			}
			lo, hi := r*runLen, min((r+1)*runLen, x.n)
			if x.boxes != nil {
				for i := lo; i < hi; i++ {
					if x.boxes[i].Intersects(q) {
						fn(i, 0)
					}
				}
				continue
			}
			lon, lat, t := x.lon[lo:hi], x.lat[lo:hi], x.t[lo:hi]
			for k := range lon {
				if pointHit(lon[k], lat[k], t[k], &q) {
					fn(lo+k, 0)
				}
			}
		}
		return
	}
	for r, run := range x.runs {
		if !intersectsAny(run, qs) {
			continue
		}
		for i := r * runLen; i < min((r+1)*runLen, x.n); i++ {
			if x.boxes != nil {
				b := x.boxes[i]
				for w, q := range qs {
					if b.Intersects(q) && fn(i, w) {
						break
					}
				}
				continue
			}
			for w := range qs {
				if pointHit(x.lon[i], x.lat[i], x.t[i], &qs[w]) && fn(i, w) {
					break
				}
			}
		}
	}
}

func intersectsAny(b Box, qs []Box) bool {
	for _, q := range qs {
		if b.Intersects(q) {
			return true
		}
	}
	return false
}
