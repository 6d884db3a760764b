package tempo

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNewNormalizes(t *testing.T) {
	d := New(10, 5)
	if d.Start != 5 || d.End != 10 {
		t.Fatalf("New(10,5) = %v", d)
	}
}

func TestInstant(t *testing.T) {
	d := Instant(42)
	if !d.IsInstant() || d.Seconds() != 0 || !d.Contains(42) || d.Contains(43) {
		t.Errorf("instant misbehaves: %v", d)
	}
}

func TestFromTimes(t *testing.T) {
	a := time.Unix(100, 0)
	b := time.Unix(200, 0)
	if got := FromTimes(b, a); got != New(100, 200) {
		t.Errorf("FromTimes = %v", got)
	}
}

func TestEmpty(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() || e.Seconds() != 0 {
		t.Fatal("Empty not empty")
	}
	d := New(0, 10)
	if e.Intersects(d) || d.Intersects(e) {
		t.Error("empty intersects nothing")
	}
	if got := e.Union(d); got != d {
		t.Errorf("empty union = %v", got)
	}
	if !d.ContainsDuration(e) {
		t.Error("every interval contains empty")
	}
}

func TestIntersects(t *testing.T) {
	a := New(0, 10)
	cases := []struct {
		name string
		b    Duration
		want bool
	}{
		{"inside", New(2, 5), true},
		{"overlap", New(5, 15), true},
		{"touch end", New(10, 20), true},
		{"touch start", New(-5, 0), true},
		{"disjoint after", New(11, 20), false},
		{"disjoint before", New(-10, -1), false},
		{"containing", New(-5, 15), true},
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("%s (sym): got %v want %v", c.name, got, c.want)
		}
	}
}

func TestIntersectionUnion(t *testing.T) {
	a, b := New(0, 10), New(5, 15)
	if got := a.Intersection(b); got != New(5, 10) {
		t.Errorf("Intersection = %v", got)
	}
	if got := a.Union(b); got != New(0, 15) {
		t.Errorf("Union = %v", got)
	}
	if !a.Intersection(New(20, 30)).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestBufferShift(t *testing.T) {
	d := New(10, 20)
	if got := d.Buffer(5); got != New(5, 25) {
		t.Errorf("Buffer = %v", got)
	}
}

func TestSplitCoversExactly(t *testing.T) {
	d := New(0, 99) // 100 instants
	for _, n := range []int{1, 2, 3, 7, 10, 100} {
		slots := d.Split(n)
		if len(slots) != n {
			t.Fatalf("Split(%d) returned %d slots", n, len(slots))
		}
		// Slots are consecutive, disjoint, and cover d.
		if slots[0].Start != d.Start || slots[n-1].End != d.End {
			t.Fatalf("Split(%d) does not cover: %v", n, slots)
		}
		for i := 1; i < n; i++ {
			if slots[i].Start != slots[i-1].End+1 {
				t.Fatalf("Split(%d) gap at %d: %v %v", n, i, slots[i-1], slots[i])
			}
		}
	}
}

func TestSplitMoreSlotsThanInstants(t *testing.T) {
	d := New(0, 2) // 3 instants
	slots := d.Split(5)
	if len(slots) != 5 {
		t.Fatalf("want 5 slots, got %d", len(slots))
	}
	nonEmpty := 0
	for _, s := range slots {
		if !s.IsEmpty() {
			nonEmpty++
		}
	}
	if nonEmpty != 3 {
		t.Errorf("want 3 non-empty slots, got %d", nonEmpty)
	}
}

func TestSplitByLength(t *testing.T) {
	d := New(0, 9)
	slots := d.SplitByLength(4)
	want := []Duration{New(0, 3), New(4, 7), New(8, 9)}
	if len(slots) != len(want) {
		t.Fatalf("got %v", slots)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Errorf("slot %d = %v, want %v", i, slots[i], want[i])
		}
	}
}

func TestSlotIndex(t *testing.T) {
	d := New(100, 199)
	if got := d.SlotIndex(100, 10); got != 0 {
		t.Errorf("SlotIndex(100) = %d", got)
	}
	if got := d.SlotIndex(155, 10); got != 5 {
		t.Errorf("SlotIndex(155) = %d", got)
	}
	if got := d.SlotIndex(99, 10); got != -1 {
		t.Errorf("SlotIndex(outside) = %d", got)
	}
}

func TestSliding(t *testing.T) {
	d := New(0, 99)
	ws := d.Sliding(50, 25)
	if len(ws) != 4 {
		t.Fatalf("windows = %v", ws)
	}
	if ws[0] != New(0, 49) || ws[1] != New(25, 74) || ws[3] != New(75, 124) {
		t.Errorf("windows = %v", ws)
	}
	// Overlap: consecutive windows share width-step instants.
	if got := ws[0].Intersection(ws[1]); got.Seconds()+1 != 25 {
		t.Errorf("overlap = %v", got)
	}
	if Empty().Sliding(10, 5) != nil {
		t.Error("empty sliding should be nil")
	}
}

func TestSlidingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 10).Sliding(0, 1)
}

func TestHourOfDayAndDayIndex(t *testing.T) {
	// 1970-01-02 03:00:00 UTC
	ts := int64(86400 + 3*3600)
	if got := HourOfDay(ts); got != 3 {
		t.Errorf("HourOfDay = %d", got)
	}
}

func TestUnionProperties(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		a := New(a1%1e9, a2%1e9)
		b := New(b1%1e9, b2%1e9)
		u := a.Union(b)
		return u == b.Union(a) && u.ContainsDuration(a) && u.ContainsDuration(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntersectionConsistentWithIntersects(t *testing.T) {
	f := func(a1, a2, b1, b2 int64) bool {
		a := New(a1%1e6, a2%1e6)
		b := New(b1%1e6, b2%1e6)
		return a.Intersects(b) == !a.Intersection(b).IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitRandomizedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		start := rng.Int63n(1e9)
		d := New(start, start+rng.Int63n(1e6))
		n := 1 + rng.Intn(50)
		slots := d.Split(n)
		var covered int64
		for _, s := range slots {
			covered += s.Seconds() + 1
			if !s.IsEmpty() && !d.ContainsDuration(s) {
				t.Fatalf("slot %v escapes %v", s, d)
			}
		}
		// Empty slots contribute Seconds()+1 == 1, so subtract them.
		empties := 0
		for _, s := range slots {
			if s.IsEmpty() {
				empties++
			}
		}
		covered -= int64(empties)
		if covered != d.Seconds()+1 {
			t.Fatalf("Split covers %d instants, interval has %d", covered, d.Seconds()+1)
		}
	}
}
