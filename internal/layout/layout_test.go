package layout

import (
	"testing"
	"testing/quick"
)

func TestIndexedSortsAndValidates(t *testing.T) {
	x, err := NewIndexed([]Segment{{Off: 64, Len: 8}, {Off: 0, Len: 8}})
	if err != nil {
		t.Fatal(err)
	}
	segs := Segments(x)
	if segs[0].Off != 0 || segs[1].Off != 64 {
		t.Fatalf("not sorted: %+v", segs)
	}
	if x.Size() != 16 || x.Extent() != 72 {
		t.Fatalf("size=%d extent=%d", x.Size(), x.Extent())
	}
}

func TestIndexedRejectsOverlap(t *testing.T) {
	if _, err := NewIndexed([]Segment{{0, 16}, {8, 8}}); err == nil {
		t.Fatal("overlap accepted")
	}
}

func TestDescribeStrided(t *testing.T) {
	v := Strided{Count: 100, BlockLen: 8, Stride: 16}
	st := Describe(v)
	if st.Segments != 100 || st.Bytes != 800 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgGap != 8 || st.GapJitter != 0 {
		t.Fatalf("gap stats = %+v", st)
	}
	if st.Density < 0.49 || st.Density > 0.51 {
		t.Fatalf("density = %v", st.Density)
	}
}

// Property: the closed-form statistics of Strided agree with the
// iterated ones for arbitrary geometry.
func TestQuickDescribeFastMatchesSlow(t *testing.T) {
	f := func(count, block, extra uint8) bool {
		c := int64(count)%64 + 1
		b := int64(block)%32 + 1
		s := b + int64(extra)%32
		v := Strided{Count: c, BlockLen: b, Stride: s}
		fast, ok := v.DescribeFast()
		if !ok {
			return false
		}
		slow := describeSlow(v)
		return fast.Segments == slow.Segments &&
			fast.Bytes == slow.Bytes &&
			fast.Extent == slow.Extent &&
			fast.MinBlock == slow.MinBlock &&
			fast.MaxBlock == slow.MaxBlock &&
			almostEq(fast.AvgGap, slow.AvgGap) &&
			almostEq(fast.Density, slow.Density)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: jitter 0 reproduces the regular strided layout.
func TestQuickJitteredZeroIsStrided(t *testing.T) {
	f := func(count, block, extra uint8) bool {
		c := int64(count)%32 + 1
		b := int64(block)%16 + 1
		s := b + int64(extra)%16
		j := Jittered(c, b, s, 0)
		want := Segments(Strided{Count: c, BlockLen: b, Stride: s})
		got := Segments(j)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitteredIncreasesGapJitter(t *testing.T) {
	reg := Describe(Jittered(1000, 8, 32, 0))
	irr := Describe(Jittered(1000, 8, 32, 0.9))
	if reg.GapJitter != 0 {
		t.Fatalf("regular jitter = %v", reg.GapJitter)
	}
	if irr.GapJitter <= 0.2 {
		t.Fatalf("jittered layout jitter = %v, want > 0.2", irr.GapJitter)
	}
	if irr.Bytes != reg.Bytes {
		t.Fatalf("jitter changed payload: %d vs %d", irr.Bytes, reg.Bytes)
	}
}
