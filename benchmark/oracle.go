package main

import (
	"bytes"
	"sync"

	"st4ml/internal/selection"
	"st4ml/internal/stdata"
)

// answer is the expected outcome of one window over one record set: how
// many records match and an order-independent digest of their ids. Both
// are additive over disjoint record sets, which is how ingest_live keeps
// its expectation current as batches land.
type answer struct {
	Count int64
	IDSum uint64
}

func (a answer) plus(b answer) answer {
	return answer{Count: a.Count + b.Count, IDSum: a.IDSum + b.IDSum}
}

// mixID spreads an id over 64 bits (splitmix64 finalizer) so a sum of
// mixed ids separates id sets that a plain sum would confuse.
func mixID(id int64) uint64 {
	x := uint64(id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// eventMatches is the selection predicate written out: a point event
// matches when its location and time lie in the closed window.
func eventMatches(e stdata.EventRec, w selection.Window) bool {
	return e.Loc.X >= w.Space.MinX && e.Loc.X <= w.Space.MaxX &&
		e.Loc.Y >= w.Space.MinY && e.Loc.Y <= w.Space.MaxY &&
		e.Time >= w.Time.Start && e.Time <= w.Time.End
}

// trajMatches is the box-level trajectory predicate the pipeline's
// selectors apply: the trajectory's spatial MBR and time extent both
// overlap the closed window.
func trajMatches(t stdata.TrajRec, w selection.Window) bool {
	if len(t.Points) == 0 {
		return false
	}
	minX, maxX := t.Points[0].X, t.Points[0].X
	minY, maxY := t.Points[0].Y, t.Points[0].Y
	for _, p := range t.Points[1:] {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	t0, t1 := t.Times[0], t.Times[0]
	for _, ts := range t.Times[1:] {
		t0, t1 = min(t0, ts), max(t1, ts)
	}
	return minX <= w.Space.MaxX && maxX >= w.Space.MinX &&
		minY <= w.Space.MaxY && maxY >= w.Space.MinY &&
		t0 <= w.Time.End && t1 >= w.Time.Start
}

// eachWindow runs fn(i) for every window index on all cores; the oracle is
// the benchmark's own work and is kept off the measured phases.
func eachWindow(n int, fn func(i int)) {
	var wg sync.WaitGroup
	const workers = 4
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				fn(i)
			}
		}(k)
	}
	wg.Wait()
}

// bruteEvents answers every window by scanning every event.
func bruteEvents(events []stdata.EventRec, windows []selection.Window) []answer {
	out := make([]answer, len(windows))
	eachWindow(len(windows), func(i int) {
		var a answer
		for _, e := range events {
			if eventMatches(e, windows[i]) {
				a.Count++
				a.IDSum += mixID(e.ID)
			}
		}
		out[i] = a
	})
	return out
}

// idKey opens every record object the daemon marshals (`{"ID":<n>,...`);
// nested objects (Loc, Points) open with other keys.
var idKey = []byte(`{"ID":`)

// scanIDs digests the record ids in a reply body without decoding it: the
// check runs on the cores the system under test is using, so it has to
// stay far cheaper than the marshalling it verifies.
func scanIDs(body []byte) answer {
	var a answer
	for {
		i := bytes.Index(body, idKey)
		if i < 0 {
			return a
		}
		body = body[i+len(idKey):]
		var id int64
		neg := false
		j := 0
		if j < len(body) && body[j] == '-' {
			neg = true
			j++
		}
		for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
			id = id*10 + int64(body[j]-'0')
		}
		if neg {
			id = -id
		}
		a.Count++
		a.IDSum += mixID(id)
		body = body[j:]
	}
}

// scanInt returns the integer following key in body, or -1 when the key is
// absent (every counter read this way is non-negative).
func scanInt(body, key []byte) int64 {
	i := bytes.Index(body, key)
	if i < 0 {
		return -1
	}
	var v int64
	for j := i + len(key); j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
		v = v*10 + int64(body[j]-'0')
	}
	return v
}

var selectedKey = []byte(`"SelectedRecords":`)
