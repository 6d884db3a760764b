// Package tempo provides the temporal primitives of ST4ML: the Duration
// interval type used as the temporal field of every ST entry (§3.2.1 of the
// paper), plus the overlap, containment, and splitting utilities the
// selectors, partitioners, and converters rely on.
//
// Timestamps are int64 Unix seconds. A Duration with Start == End is an
// instant — the paper treats instants as a special case of durations.
package tempo

import (
	"fmt"
	"time"
)

// Duration is a closed time interval [Start, End] in Unix seconds.
type Duration struct {
	Start, End int64
}

// New constructs a Duration, normalizing the endpoint order.
func New(start, end int64) Duration {
	if end < start {
		start, end = end, start
	}
	return Duration{Start: start, End: end}
}

// Instant returns the degenerate interval [t, t].
func Instant(t int64) Duration { return Duration{Start: t, End: t} }

// FromTimes constructs a Duration from two time.Time values.
func FromTimes(start, end time.Time) Duration { return New(start.Unix(), end.Unix()) }

// Empty is the identity for Union: it contains nothing and unions to the
// other operand. It is represented by Start > End.
func Empty() Duration { return Duration{Start: 1, End: 0} }

// IsEmpty reports whether the interval contains no instants.
func (d Duration) IsEmpty() bool { return d.Start > d.End }

// IsInstant reports whether the interval is a single instant.
func (d Duration) IsInstant() bool { return d.Start == d.End }

// Seconds returns the interval length in seconds (0 for instants and empty
// intervals).
func (d Duration) Seconds() int64 {
	if d.IsEmpty() {
		return 0
	}
	return d.End - d.Start
}

// Center returns the midpoint of the interval.
func (d Duration) Center() int64 { return d.Start + (d.End-d.Start)/2 }

// Contains reports whether instant t lies in the interval.
func (d Duration) Contains(t int64) bool { return t >= d.Start && t <= d.End }

// ContainsDuration reports whether o lies entirely within d. Every interval
// contains the empty interval.
func (d Duration) ContainsDuration(o Duration) bool {
	if o.IsEmpty() {
		return true
	}
	return o.Start >= d.Start && o.End <= d.End
}

// Intersects reports whether the two intervals share at least one instant
// (touching endpoints count). Empty intervals intersect nothing.
func (d Duration) Intersects(o Duration) bool {
	if d.IsEmpty() || o.IsEmpty() {
		return false
	}
	return d.Start <= o.End && o.Start <= d.End
}

// Intersection returns the overlap of the two intervals (empty if disjoint).
func (d Duration) Intersection(o Duration) Duration {
	r := Duration{Start: max64(d.Start, o.Start), End: min64(d.End, o.End)}
	if r.IsEmpty() {
		return Empty()
	}
	return r
}

// Union returns the smallest interval covering both operands.
func (d Duration) Union(o Duration) Duration {
	if d.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return d
	}
	return Duration{Start: min64(d.Start, o.Start), End: max64(d.End, o.End)}
}

// ExpandTo returns the smallest interval covering d and instant t.
func (d Duration) ExpandTo(t int64) Duration { return d.Union(Instant(t)) }

// Buffer grows the interval by s seconds on both sides.
func (d Duration) Buffer(s int64) Duration {
	if d.IsEmpty() {
		return d
	}
	return Duration{Start: d.Start - s, End: d.End + s}
}

// Split divides the interval into n consecutive sub-intervals of (nearly)
// equal length covering d exactly. Consecutive slots share no interior;
// slot i is [start_i, start_{i+1}) represented as closed [start_i,
// start_{i+1}-1], except the last slot which ends at d.End. Split panics for
// n < 1 and returns nil for empty intervals.
func (d Duration) Split(n int) []Duration {
	if n < 1 {
		panic("tempo: Split n < 1")
	}
	if d.IsEmpty() {
		return nil
	}
	total := d.End - d.Start + 1
	out := make([]Duration, 0, n)
	start := d.Start
	for i := 0; i < n; i++ {
		size := total / int64(n)
		if int64(i) < total%int64(n) {
			size++
		}
		if size <= 0 { // more slots than instants: remaining slots are empty
			out = append(out, Empty())
			continue
		}
		out = append(out, Duration{Start: start, End: start + size - 1})
		start += size
	}
	return out
}

// SplitByLength divides the interval into consecutive slots of length step
// seconds (the final slot may be shorter). Slots are half-open in spirit:
// [t, t+step) encoded as closed [t, t+step-1].
func (d Duration) SplitByLength(step int64) []Duration {
	if step < 1 {
		panic("tempo: SplitByLength step < 1")
	}
	if d.IsEmpty() {
		return nil
	}
	var out []Duration
	for t := d.Start; t <= d.End; t += step {
		end := t + step - 1
		if end > d.End {
			end = d.End
		}
		out = append(out, Duration{Start: t, End: end})
	}
	return out
}

// Sliding returns overlapping windows of the given width advancing by step
// seconds — the temporalSliding helper of §3.3. Windows start at d.Start
// and are emitted while they begin inside d; the final windows may extend
// past d.End (callers clip with Intersection if needed).
func (d Duration) Sliding(width, step int64) []Duration {
	if width < 1 || step < 1 {
		panic("tempo: Sliding needs width >= 1 and step >= 1")
	}
	if d.IsEmpty() {
		return nil
	}
	var out []Duration
	for t := d.Start; t <= d.End; t += step {
		out = append(out, Duration{Start: t, End: t + width - 1})
	}
	return out
}

// SlotIndex returns the index of the slot of length step (anchored at
// d.Start) containing instant t, or -1 when t is outside d.
func (d Duration) SlotIndex(t, step int64) int {
	if d.IsEmpty() || !d.Contains(t) || step < 1 {
		return -1
	}
	return int((t - d.Start) / step)
}

// String formats the interval as "[start, end]".
func (d Duration) String() string {
	if d.IsEmpty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%d, %d]", d.Start, d.End)
}

// HourOfDay returns the hour-of-day (0..23) of instant t in UTC.
func HourOfDay(t int64) int { return int(t % 86400 / 3600) }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
