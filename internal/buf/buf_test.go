package buf

import (
	"testing"
	"testing/quick"
)

func TestAllocZeroed(t *testing.T) {
	b := Alloc(128)
	if b.Len() != 128 {
		t.Fatalf("Len = %d, want 128", b.Len())
	}
	if b.IsVirtual() {
		t.Fatal("Alloc returned a virtual block")
	}
	for i, x := range b.Bytes() {
		if x != 0 {
			t.Fatalf("byte %d = %d, want 0", i, x)
		}
	}
}

func TestAllocAlignedLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4096} {
		b := AllocAligned(n)
		if b.Len() != n {
			t.Errorf("AllocAligned(%d).Len() = %d", n, b.Len())
		}
	}
}

func TestVirtualBlock(t *testing.T) {
	v := Virtual(1 << 30)
	if !v.IsVirtual() {
		t.Fatal("Virtual block reports real")
	}
	if v.Len() != 1<<30 {
		t.Fatalf("Len = %d", v.Len())
	}
	if v.Bytes() != nil {
		t.Fatal("virtual block has backing bytes")
	}
	// Copies involving virtual blocks count but do not move bytes.
	r := Alloc(64)
	if n := Copy(r, v.Slice(0, 64)); n != 64 {
		t.Fatalf("Copy = %d, want 64", n)
	}
}

func TestSliceAliasing(t *testing.T) {
	b := Alloc(16)
	s := b.Slice(4, 8)
	s.Bytes()[0] = 42
	if b.Bytes()[4] != 42 {
		t.Fatal("slice does not alias parent")
	}
	if s.Region() != b.Region() {
		t.Fatal("slice changed region identity")
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Slice did not panic")
		}
	}()
	Alloc(8).Slice(4, 8)
}

func TestCopyAt(t *testing.T) {
	src := Alloc(10)
	for i := range src.Bytes() {
		src.Bytes()[i] = byte(i + 1)
	}
	dst := Alloc(10)
	if n := CopyAt(dst, 2, src, 5, 3); n != 3 {
		t.Fatalf("CopyAt = %d", n)
	}
	want := []byte{0, 0, 6, 7, 8, 0, 0, 0, 0, 0}
	for i, w := range want {
		if dst.Bytes()[i] != w {
			t.Fatalf("dst[%d] = %d, want %d", i, dst.Bytes()[i], w)
		}
	}
}

func TestCopyAtBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range CopyAt did not panic")
		}
	}()
	CopyAt(Alloc(4), 0, Alloc(4), 2, 3)
}

func TestFillVerifyPattern(t *testing.T) {
	b := Alloc(1 << 16)
	b.FillPattern(7)
	if err := b.VerifyPattern(7); err != nil {
		t.Fatalf("VerifyPattern: %v", err)
	}
	b.Bytes()[1234] ^= 0xff
	if err := b.VerifyPattern(7); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestPatternSeedsDiffer(t *testing.T) {
	a := Alloc(256)
	b := Alloc(256)
	a.FillPattern(1)
	b.FillPattern(2)
	if Equal(a, b) {
		t.Fatal("different seeds produced identical patterns")
	}
}

func TestEqual(t *testing.T) {
	a, b := Alloc(32), Alloc(32)
	a.FillPattern(9)
	b.FillPattern(9)
	if !Equal(a, b) {
		t.Fatal("identical blocks not equal")
	}
	for _, i := range []int{0, 31} {
		b.Bytes()[i] ^= 1
		if Equal(a, b) {
			t.Fatalf("difference at byte %d reported equal", i)
		}
		b.Bytes()[i] ^= 1
	}
	if Equal(a, Alloc(16)) || Equal(a, a.Slice(0, 31)) {
		t.Fatal("length mismatch reported equal")
	}
	if !Equal(Alloc(0), Block{}) {
		t.Fatal("empty blocks not equal")
	}
	if !Equal(a, Virtual(32)) || !Equal(Virtual(32), Virtual(32)) {
		t.Fatal("virtual comparison must be length-only")
	}
	if Equal(a, Virtual(16)) {
		t.Fatal("virtual block of another length reported equal")
	}
}

func TestRegionsDistinct(t *testing.T) {
	if Alloc(1).Region() == Alloc(1).Region() {
		t.Fatal("two allocations share a region")
	}
}

func TestZero(t *testing.T) {
	b := Alloc(64)
	b.FillPattern(3)
	b.Zero()
	for i, x := range b.Bytes() {
		if x != 0 {
			t.Fatalf("byte %d = %d after Zero", i, x)
		}
	}
}

// Property: a round trip through CopyAt preserves any pattern for any
// sizes and offsets within bounds.
func TestQuickCopyRoundTrip(t *testing.T) {
	f := func(seed byte, size uint16, off uint8) bool {
		n := int(size)%512 + 1
		o := int(off) % n
		src := Alloc(n)
		src.FillPattern(seed)
		dst := Alloc(n)
		CopyAt(dst, o, src, o, n-o)
		for i := o; i < n; i++ {
			if dst.Bytes()[i] != src.Bytes()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Copy never reports more bytes than either block holds.
func TestQuickCopyClamped(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a)%1024, int(b)%1024
		n := Copy(Alloc(x), Alloc(y))
		min := x
		if y < x {
			min = y
		}
		return n == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
