package buf_test

import (
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/oracle"
)

// patternLens covers every tail length around the 256-byte row, and
// two lengths past the wraps of patternByte's i>>8 and i>>16 terms.
func patternLens() []int {
	lens := make([]int, 0, 1028)
	for n := 0; n <= 1025; n++ {
		lens = append(lens, n)
	}
	return append(lens, 64<<10+3, 16<<20+5)
}

// patternViews are the three ways a block of n bytes comes to exist;
// the Slice view starts at an odd offset of its parent, and the
// pattern restarts at the view's own byte 0.
var patternViews = []struct {
	name string
	make func(n int) buf.Block
}{
	{"Alloc", buf.Alloc},
	{"AllocAligned", buf.AllocAligned},
	{"Slice+3", func(n int) buf.Block { return buf.Alloc(n+7).Slice(3, n) }},
}

func TestFillVerifyPattern(t *testing.T) {
	b := buf.Alloc(1 << 16)
	b.FillPattern(7)
	if err := oracle.VerifyPattern(b, 7); err != nil {
		t.Fatalf("VerifyPattern: %v", err)
	}
	b.Bytes()[1234] ^= 0xff
	if err := oracle.VerifyPattern(b, 7); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestFillPatternMatchesReference(t *testing.T) {
	for _, v := range patternViews {
		for _, n := range patternLens() {
			b := v.make(n)
			for _, seed := range []byte{0, 0xA5, 0xFF} {
				b.FillPattern(seed)
				for i, got := range b.Bytes() {
					if want := buf.PatternByte(seed, i); got != want {
						t.Fatalf("%s len %d seed %#x: byte %d = %#x, reference %#x", v.name, n, seed, i, got, want)
					}
				}
				if err := oracle.VerifyPattern(b, seed); err != nil {
					t.Fatalf("%s len %d seed %#x: %v", v.name, n, seed, err)
				}
			}
		}
	}
}

// TestVerifyPatternLocatesFlip damages one byte at a time and expects
// VerifyPattern to name exactly that byte: every position of a block
// with a tail, and the row edges, wraps and tail of the large ones.
func TestVerifyPatternLocatesFlip(t *testing.T) {
	check := func(b buf.Block, seed byte, i int) {
		t.Helper()
		d := b.Bytes()
		d[i] ^= 0x40
		err := oracle.VerifyPattern(b, seed)
		d[i] ^= 0x40
		want := fmt.Sprintf("buf: pattern mismatch at byte %d: got %#x want %#x", i, d[i]^0x40, d[i])
		if err == nil || err.Error() != want {
			t.Fatalf("len %d: flip at %d reported as %v, want %q", b.Len(), i, err, want)
		}
	}
	for _, v := range patternViews {
		b := v.make(1<<10 + 5)
		b.FillPattern(0xA5)
		for i := 0; i < b.Len(); i++ {
			check(b, 0xA5, i)
		}
		if err := oracle.VerifyPattern(b, 0xA5); err != nil {
			t.Fatalf("%s: restored block: %v", v.name, err)
		}
	}
	for _, n := range []int{64<<10 + 3, 16<<20 + 5} {
		b := buf.AllocAligned(n)
		b.FillPattern(0xFF)
		for _, i := range []int{0, 7, 8, 255, 256, 257, 65535, 65536, n / 2, n - 6, n - 5, n - 1} {
			check(b, 0xFF, i)
		}
	}
	// Two damaged bytes: the lower index is the one reported.
	b := buf.Alloc(4096)
	b.FillPattern(1)
	b.Bytes()[3000] ^= 1
	check(b, 1, 700)
}
