// The tests here check layouts against oracle.ValidateLayout, which
// imports this package, so they live in the external test package.
package layout_test

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/oracle"
)

func TestStridedBasics(t *testing.T) {
	// The paper's canonical layout: every other float64.
	v := layout.Strided{Count: 4, BlockLen: 8, Stride: 16}
	if v.Size() != 32 {
		t.Fatalf("size = %d", v.Size())
	}
	if v.Extent() != 3*16+8 {
		t.Fatalf("extent = %d", v.Extent())
	}
	want := []layout.Segment{{0, 8}, {16, 8}, {32, 8}, {48, 8}}
	got := layout.Segments(v)
	if len(got) != len(want) {
		t.Fatalf("segments = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := oracle.ValidateLayout(v); err != nil {
		t.Fatal(err)
	}
}

func TestStridedDegeneratesToContig(t *testing.T) {
	v := layout.Strided{Count: 10, BlockLen: 8, Stride: 8}
	if v.SegmentCount() != 1 {
		t.Fatalf("dense stride should coalesce, got %d segments", v.SegmentCount())
	}
	if err := oracle.ValidateLayout(v); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesLies(t *testing.T) {
	if err := oracle.ValidateLayout(badLayout{}); err == nil {
		t.Fatal("ValidateLayout accepted a lying layout")
	}
}

// badLayout advertises a wrong Size.
type badLayout struct{}

func (badLayout) Size() int64   { return 5 }
func (badLayout) Extent() int64 { return 10 }
func (badLayout) ForEach(fn func(layout.Segment) bool) {
	fn(layout.Segment{Off: 0, Len: 10})
}
func (badLayout) SegmentCount() int { return 1 }
func (badLayout) Name() string      { return "bad" }
