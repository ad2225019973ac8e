package elem

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/buf"
)

func TestFloat64RoundTrip(t *testing.T) {
	b := buf.Alloc(8 * 4)
	vals := []float64{0, -1.5, math.Pi, math.Inf(1)}
	for i, v := range vals {
		PutFloat64(b, i, v)
	}
	for i, v := range vals {
		if got := Float64(b, i); got != v {
			t.Errorf("elem %d = %v, want %v", i, got, v)
		}
	}
}

func TestIntRoundTrips(t *testing.T) {
	b := buf.Alloc(64)
	PutInt64(b, 3, -1<<40)
	if Int64(b, 3) != -1<<40 {
		t.Fatalf("int64 = %d", Int64(b, 3))
	}
}

func TestComplexLayoutIsRealImagPairs(t *testing.T) {
	// The layout property the whole study rests on: real parts are
	// every other float64.
	b := buf.Alloc(16 * 2)
	PutComplex128(b, 0, complex(1, 2))
	PutComplex128(b, 1, complex(3, 4))
	want := []float64{1, 2, 3, 4}
	for i, w := range want {
		if got := Float64(b, i); got != w {
			t.Fatalf("float64 view[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestVirtualBlockReadsZero(t *testing.T) {
	v := buf.Virtual(64)
	PutFloat64(v, 0, 42) // must not panic
	if Float64(v, 0) != 0 {
		t.Fatal("virtual read non-zero")
	}
}

// Property: Put/Get round-trips hold for arbitrary values and indices.
func TestQuickFloat64(t *testing.T) {
	b := buf.Alloc(8 * 64)
	f := func(v float64, idx uint8) bool {
		i := int(idx) % 64
		PutFloat64(b, i, v)
		got := Float64(b, i)
		return got == v || (math.IsNaN(v) && math.IsNaN(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickComplex128(t *testing.T) {
	b := buf.Alloc(16 * 32)
	f := func(re, im float64, idx uint8) bool {
		if math.IsNaN(re) || math.IsNaN(im) {
			return true
		}
		i := int(idx) % 32
		PutComplex128(b, i, complex(re, im))
		return Float64(b, 2*i) == re && Float64(b, 2*i+1) == im
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
