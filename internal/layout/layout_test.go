package layout

import (
	"testing"
	"testing/quick"
)

// Property: jitter 0 reproduces the regular strided layout: count
// blocks stride apart, or one run when the stride is dense.
func TestQuickJitteredZeroIsStrided(t *testing.T) {
	f := func(count, block, extra uint8) bool {
		c := int64(count)%32 + 1
		b := int64(block)%16 + 1
		s := b + int64(extra)%16
		want := []Segment{{Off: 0, Len: c * b}}
		if s != b {
			want = want[:0]
			for i := int64(0); i < c; i++ {
				want = append(want, Segment{Off: i * s, Len: b})
			}
		}
		got := Jittered(c, b, s, 0)
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
