// The tests here check layouts against the oracle package, which
// imports this package, so they live in the external test package.
package layout_test

import (
	"testing"

	"repro/internal/layout"
	"repro/internal/oracle"
)

func TestStridedBasics(t *testing.T) {
	// The paper's canonical layout: every other float64.
	got := layout.Jittered(4, 8, 16, 0)
	want := []layout.Segment{{0, 8}, {16, 8}, {32, 8}, {48, 8}}
	if len(got) != len(want) {
		t.Fatalf("segments = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := oracle.ValidateLayout(got); err != nil {
		t.Fatal(err)
	}
	if st := oracle.Stats(got); st.Bytes != 32 || st.Extent != 3*16+8 {
		t.Fatalf("bytes %d extent %d", st.Bytes, st.Extent)
	}
}

func TestStridedDegeneratesToContig(t *testing.T) {
	segs := layout.Jittered(10, 8, 8, 0)
	if len(segs) != 1 || segs[0] != (layout.Segment{Off: 0, Len: 80}) {
		t.Fatalf("dense stride should coalesce, got %+v", segs)
	}
	if st := oracle.Stats(segs); st != layout.Dense(80) {
		t.Fatalf("dense stride stats %+v, want %+v", st, layout.Dense(80))
	}
}

func TestValidateCatchesLies(t *testing.T) {
	for _, segs := range [][]layout.Segment{
		{{Off: 0, Len: 16}, {Off: 8, Len: 8}}, // overlap
		{{Off: 16, Len: 8}, {Off: 0, Len: 8}}, // descending
		{{Off: -8, Len: 8}},                   // negative offset
		{{Off: 0, Len: -1}},                   // negative length
	} {
		if err := oracle.ValidateLayout(segs); err == nil {
			t.Errorf("ValidateLayout accepted %+v", segs)
		}
	}
	for _, j := range []float64{0, 0.5, 1} {
		if err := oracle.ValidateLayout(layout.Jittered(1000, 8, 32, j)); err != nil {
			t.Errorf("jitter %v: %v", j, err)
		}
	}
}

func TestDescribeStrided(t *testing.T) {
	st := oracle.Stats(layout.Jittered(100, 8, 16, 0))
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

func TestJitteredIncreasesGapJitter(t *testing.T) {
	reg := oracle.Stats(layout.Jittered(1000, 8, 32, 0))
	irr := oracle.Stats(layout.Jittered(1000, 8, 32, 0.9))
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
