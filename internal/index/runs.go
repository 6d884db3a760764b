package index

import "unsafe"

// runLen is the number of consecutive records one run box covers. Stores
// are Z-clustered at ingest and compaction, so a run of neighbours has a
// tight box and a window skips most runs on one test each.
const runLen = 16

// Runs is the run index over records kept in record order: each record's
// box plus one box per run of runLen consecutive records. It is built in
// one pass with no sort, and a search tests the records of a run only when
// the run's box meets a window, with the same Box.Intersects at both
// levels, so hits come out in ascending record order and equal a linear
// scan. Selection filters each loaded partition through one, and the
// serving tier pins one per cached file.
type Runs struct {
	boxes []Box
	runs  []Box
}

// NewRuns builds the run index over boxes, record i's box at boxes[i]. The
// index keeps boxes; the caller must not modify them afterwards.
func NewRuns(boxes []Box) *Runs {
	x := &Runs{boxes: boxes, runs: make([]Box, 0, (len(boxes)+runLen-1)/runLen)}
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

// SizeBytes is the index's resident size: its record boxes and run boxes.
func (x *Runs) SizeBytes() int64 {
	return int64(unsafe.Sizeof(Box{})) * int64(cap(x.boxes)+cap(x.runs))
}

// Bound returns the number of records in the runs whose box intersects q:
// an upper bound on the hits Search reports for q alone, from one test per
// run, which a caller collecting the hits sizes its slice with.
func (x *Runs) Bound(q Box) int {
	n := 0
	for r := range x.runs {
		if x.runs[r].Intersects(q) {
			n += min((r+1)*runLen, len(x.boxes)) - r*runLen
		}
	}
	return n
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
			for i := r * runLen; i < min((r+1)*runLen, len(x.boxes)); i++ {
				if x.boxes[i].Intersects(q) {
					fn(i, 0)
				}
			}
		}
		return
	}
	for r, run := range x.runs {
		if !intersectsAny(run, qs) {
			continue
		}
		for i := r * runLen; i < min((r+1)*runLen, len(x.boxes)); i++ {
			b := x.boxes[i]
			for w, q := range qs {
				if b.Intersects(q) && fn(i, w) {
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
