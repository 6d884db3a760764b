package codec

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip[T any](t *testing.T, c Codec[T], v T) T {
	t.Helper()
	got, err := Unmarshal(c, Marshal(c, v))
	if err != nil {
		t.Fatalf("Unmarshal(%v): %v", v, err)
	}
	return got
}

func TestPrimitiveRoundTrips(t *testing.T) {
	for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 123456789} {
		if got := roundTrip(t, Int64, v); got != v {
			t.Errorf("int64 %d -> %d", v, got)
		}
	}
	for _, v := range []float64{0, -0.5, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		if got := roundTrip(t, Float64, v); got != v {
			t.Errorf("float64 %g -> %g", v, got)
		}
	}
	if got := roundTrip(t, Float64, math.NaN()); !math.IsNaN(got) {
		t.Errorf("NaN -> %g", got)
	}
	for _, v := range []string{"", "hello", "ünïcødé 漢字", string([]byte{0, 1, 255})} {
		if got := roundTrip(t, String, v); got != v {
			t.Errorf("string %q -> %q", v, got)
		}
	}
	for _, v := range []bool{true, false} {
		if got := roundTrip(t, Bool, v); got != v {
			t.Errorf("bool %v -> %v", v, got)
		}
	}
	if got := roundTrip(t, Uint64, uint64(math.MaxUint64)); got != math.MaxUint64 {
		t.Errorf("uint64 max -> %d", got)
	}
}

func TestCompositeRoundTrips(t *testing.T) {
	pc := PairOf(String, Int64)
	p := KV("speed", int64(88))
	if got := roundTrip(t, pc, p); got != p {
		t.Errorf("pair %v -> %v", p, got)
	}

	sc := SliceOf(Int)
	s := []int{5, -3, 0, 999}
	if got := roundTrip(t, sc, s); !reflect.DeepEqual(got, s) {
		t.Errorf("slice %v -> %v", s, got)
	}
	if got := roundTrip(t, sc, []int{}); len(got) != 0 {
		t.Errorf("empty slice -> %v", got)
	}

	mc := MapOf(String, Float64)
	m := map[string]float64{"a": 1.5, "b": -2}
	if got := roundTrip(t, mc, m); !reflect.DeepEqual(got, m) {
		t.Errorf("map %v -> %v", m, got)
	}
}

func TestNestedComposite(t *testing.T) {
	c := SliceOf(PairOf(String, SliceOf(Float64)))
	v := []Pair[string, []float64]{
		KV("xs", []float64{1, 2, 3}),
		KV("ys", []float64{}),
	}
	got := roundTrip(t, c, v)
	if len(got) != 2 || got[0].Key != "xs" || !reflect.DeepEqual(got[0].Value, []float64{1, 2, 3}) {
		t.Errorf("nested -> %v", got)
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	b := append(Marshal(Int64, 7), 0xFF)
	if _, err := Unmarshal(Int64, b); err == nil {
		t.Error("trailing garbage should error")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	b := Marshal(String, "hello world")
	if _, err := Unmarshal(String, b[:3]); err == nil {
		t.Error("truncated input should error")
	}
	if _, err := Unmarshal(Float64, []byte{1, 2}); err == nil {
		t.Error("short float should error")
	}
	if _, err := Unmarshal(Bool, []byte{7}); err == nil {
		t.Error("invalid bool should error")
	}
	if _, err := Unmarshal(Bool, nil); err == nil {
		t.Error("empty bool should error")
	}
}

func TestWriterReuse(t *testing.T) {
	w := NewWriter(16)
	w.PutString("first")
	w.Reset()
	w.PutVarint(42)
	r := NewReader(w.Bytes())
	if got := r.Varint(); got != 42 {
		t.Errorf("after reset: %d", got)
	}
	if r.Remaining() != 0 {
		t.Error("leftover bytes after reset-reuse")
	}
}

func TestStreamedValues(t *testing.T) {
	// Multiple values written back to back decode in order.
	w := NewWriter(64)
	Int64.Enc(w, 1)
	String.Enc(w, "mid")
	Float64.Enc(w, 2.5)
	r := NewReader(w.Bytes())
	if Int64.Dec(r) != 1 || String.Dec(r) != "mid" || Float64.Dec(r) != 2.5 {
		t.Error("streamed decode mismatch")
	}
	if r.Remaining() != 0 {
		t.Error("stream should be fully consumed")
	}
}

func TestQuickInt64(t *testing.T) {
	f := func(v int64) bool {
		got, err := Unmarshal(Int64, Marshal(Int64, v))
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickString(t *testing.T) {
	f := func(v string) bool {
		got, err := Unmarshal(String, Marshal(String, v))
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickPairSlice(t *testing.T) {
	c := SliceOf(PairOf(Int64, String))
	f := func(ks []int64, vs []string) bool {
		n := len(ks)
		if len(vs) < n {
			n = len(vs)
		}
		in := make([]Pair[int64, string], n)
		for i := 0; i < n; i++ {
			in[i] = KV(ks[i], vs[i])
		}
		got, err := Unmarshal(c, Marshal(c, in))
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCatchPassesThroughOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-codec panic should propagate")
		}
	}()
	_ = Catch(func() { panic("boom") })
}
