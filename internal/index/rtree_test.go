package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"st4ml/internal/geom"
	"st4ml/internal/tempo"
)

func randomItems(rng *rand.Rand, n int) []Item[int] {
	items := make([]Item[int], n)
	for i := range items {
		p := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		t := rng.Int63n(1_000_000)
		b := Box3(geom.Box(p.X, p.Y, p.X+rng.Float64()*5, p.Y+rng.Float64()*5),
			tempo.New(t, t+rng.Int63n(5000)))
		items[i] = Item[int]{Box: b, Data: i}
	}
	return items
}

// bruteSearch returns data of items intersecting q, sorted.
func bruteSearch(items []Item[int], q Box) []int {
	var out []int
	for _, it := range items {
		if it.Box.Intersects(q) {
			out = append(out, it.Data)
		}
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBoxBasics(t *testing.T) {
	b := Box3(geom.Box(0, 0, 10, 10), tempo.New(0, 100))
	if b.IsEmpty() {
		t.Fatal("box should not be empty")
	}
	if got := b.Spatial(); got != geom.Box(0, 0, 10, 10) {
		t.Errorf("Spatial = %v", got)
	}
	if got := b.Temporal(); got != tempo.New(0, 100) {
		t.Errorf("Temporal = %v", got)
	}
	if v := b.Volume(); v != 10*10*100 {
		t.Errorf("Volume = %g", v)
	}
	if m := b.Margin(); m != 120 {
		t.Errorf("Margin = %g", m)
	}
	e := EmptyBox()
	if !e.IsEmpty() || e.Volume() != 0 {
		t.Error("EmptyBox misbehaves")
	}
	if got := e.Union(b); got != b {
		t.Errorf("empty union = %v", got)
	}
}

func TestBoxDistanceSq(t *testing.T) {
	b := Box2(geom.Box(0, 0, 10, 10))
	if d := b.DistanceSq([3]float64{5, 5, 0}); d != 0 {
		t.Errorf("inside = %g", d)
	}
	if d := b.DistanceSq([3]float64{13, 14, 0}); d != 25 {
		t.Errorf("outside = %g", d)
	}
}

func TestBulkLoadSearchMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 3000)
	tree := BulkLoadSTR(items, 16)
	if tree.Len() != len(items) {
		t.Fatalf("Len = %d, want %d", tree.Len(), len(items))
	}
	for q := 0; q < 50; q++ {
		query := Box3(
			geom.Box(rng.Float64()*1000, rng.Float64()*1000,
				rng.Float64()*1000, rng.Float64()*1000),
			tempo.New(rng.Int63n(1_000_000), rng.Int63n(1_000_000)))
		got := tree.Search(query)
		sort.Ints(got)
		want := bruteSearch(items, query)
		if !equalInts(got, want) {
			t.Fatalf("query %d: got %d items, want %d", q, len(got), len(want))
		}
	}
}

func TestInsertSearchMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 2000)
	tree := NewRTree[int](8)
	for _, it := range items {
		tree.Insert(it.Box, it.Data)
	}
	if tree.Len() != len(items) {
		t.Fatalf("Len = %d", tree.Len())
	}
	for q := 0; q < 50; q++ {
		query := Box3(
			geom.Box(rng.Float64()*1000, rng.Float64()*1000,
				rng.Float64()*1000, rng.Float64()*1000),
			tempo.New(rng.Int63n(1_000_000), rng.Int63n(1_000_000)))
		got := tree.Search(query)
		sort.Ints(got)
		want := bruteSearch(items, query)
		if !equalInts(got, want) {
			t.Fatalf("query %d: got %d items, want %d", q, len(got), len(want))
		}
	}
}

func TestMixedBulkThenInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randomItems(rng, 1000)
	tree := BulkLoadSTR(items[:500], 8)
	for _, it := range items[500:] {
		tree.Insert(it.Box, it.Data)
	}
	query := Box3(geom.Box(100, 100, 900, 900), tempo.New(0, 1_000_000))
	got := tree.Search(query)
	sort.Ints(got)
	if want := bruteSearch(items, query); !equalInts(got, want) {
		t.Fatalf("got %d, want %d", len(got), len(want))
	}
}

func TestEmptyTree(t *testing.T) {
	tree := NewRTree[string](0)
	if tree.Len() != 0 || tree.Height() != 1 {
		t.Error("fresh tree should be empty with height 1")
	}
	if got := tree.Search(Box2(geom.Box(0, 0, 1, 1))); len(got) != 0 {
		t.Errorf("search on empty = %v", got)
	}
	empty := BulkLoadSTR[string](nil, 4)
	if empty.Len() != 0 {
		t.Error("bulk load of nil should be empty")
	}
}

func TestSearchFuncEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tree := BulkLoadSTR(randomItems(rng, 500), 8)
	count := 0
	tree.SearchFunc(tree.Bounds(), func(int, Box) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := randomItems(rng, 800)
	tree := BulkLoadSTR(items, 8)
	q := Box3(geom.Box(0, 0, 500, 500), tempo.New(0, 500_000))
	if got, want := tree.Count(q), len(bruteSearch(items, q)); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
}

func TestHeightGrowth(t *testing.T) {
	tree := NewRTree[int](4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		tree.Insert(Box2(p.MBR()), i)
	}
	if h := tree.Height(); h < 3 {
		t.Errorf("500 items at fanout 4 should give height >= 3, got %d", h)
	}
	// Every item is still findable.
	if got := tree.Count(tree.Bounds()); got != 500 {
		t.Errorf("Count(bounds) = %d", got)
	}
}

func TestBulkLoadUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng, 10000)
	tree := BulkLoadSTR(items, 16)
	// STR packing should give a shallow tree: ceil(log_16(10000/16)) + 1.
	if h := tree.Height(); h > 4 {
		t.Errorf("STR height = %d, want <= 4", h)
	}
}

func TestDegenerate1DBoxes(t *testing.T) {
	// Pure temporal index: spatial axes all zero.
	box1 := func(d tempo.Duration) Box {
		var b Box
		b.Min[2], b.Max[2] = float64(d.Start), float64(d.End)
		return b
	}
	var items []Item[int]
	for i := 0; i < 100; i++ {
		items = append(items, Item[int]{
			Box:  box1(tempo.New(int64(i*10), int64(i*10+9))),
			Data: i,
		})
	}
	tree := BulkLoadSTR(items, 4)
	got := tree.Search(box1(tempo.New(95, 125)))
	sort.Ints(got)
	if !equalInts(got, []int{9, 10, 11, 12}) {
		t.Errorf("temporal search = %v", got)
	}
}

func TestBoundsCoversAll(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, 300)
	tree := BulkLoadSTR(items, 8)
	b := tree.Bounds()
	for _, it := range items {
		if !b.Contains(it.Box) {
			t.Fatalf("bounds %v does not contain %v", b, it.Box)
		}
	}
}

func TestInsertDuplicateBoxes(t *testing.T) {
	tree := NewRTree[int](4)
	b := Box2(geom.Box(5, 5, 5, 5))
	for i := 0; i < 50; i++ {
		tree.Insert(b, i)
	}
	if got := len(tree.Search(b)); got != 50 {
		t.Errorf("duplicate search = %d", got)
	}
}

func TestBoxCenter(t *testing.T) {
	b := Box3(geom.Box(0, 0, 10, 20), tempo.New(100, 200))
	c := b.Center()
	if c[0] != 5 || c[1] != 10 || c[2] != 150 {
		t.Errorf("Center = %v", c)
	}
}

func TestMarginMonotonicUnderUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		a := Box2(geom.Box(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
		b := Box2(geom.Box(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
		u := a.Union(b)
		if u.Margin()+1e-12 < math.Max(a.Margin(), b.Margin()) {
			t.Fatalf("union margin shrank: %v %v", a, b)
		}
		if !u.Contains(a) || !u.Contains(b) {
			t.Fatalf("union does not contain operands")
		}
	}
}
