// The table here is built from the figure axes, and internal/figures
// imports this package, so the test lives in the external test package.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/layout"
	"repro/internal/oracle"
)

// oracleCap bounds the payloads whose segments the test lists: the
// largest real payload of the figures (-max-real); above it the
// 10⁹-byte sizes would need a segment list of gigabytes.
const oracleCap = 16 << 20

// TestWorkloadStatsMatchOracle: every workload the figure axes build is
// priced and charged from Workload.Stats, the closed form of its
// derived type. Under ==, it equals the statistics of iterating the
// segments derived from the workload's fields alone, and for an exact
// stride the closed form of the subarray type as well.
func TestWorkloadStatsMatchOracle(t *testing.T) {
	var ws []core.Workload
	for _, n := range figures.DefaultSizes(4) {
		ws = append(ws, core.ForBytes(n))
	}
	for _, s := range figures.Studies() {
		if s.Axis.Cell == nil {
			continue
		}
		for _, x := range s.Points {
			ws = append(ws, s.Axis.Cell(x, s.Bytes))
		}
	}
	ws = append(ws,
		core.Workload{Count: 1, BlockLen: 3, Stride: 7},
		core.Workload{Count: 1000, BlockLen: 5, Stride: 5},
		core.Workload{Count: 1000, BlockLen: 5, Stride: 5, Jitter: 0.5},
	)
	for _, w := range ws {
		got, err := w.Stats()
		if err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
		if w.Bytes() <= oracleCap {
			if want := oracle.Stats(segmentsOf(w)); got != want {
				t.Errorf("%+v:\n closed form %+v\n iterated    %+v", w, got, want)
			}
		}
		if w.Jitter > 0 {
			continue
		}
		sub, err := w.SubarrayType()
		if err != nil {
			t.Fatal(err)
		}
		if want := sub.Stats(1); got != want {
			t.Errorf("%+v:\n vector   %+v\n subarray %+v", w, got, want)
		}
	}
}

// segmentsOf lists a workload's byte segments from its fields: Count
// blocks Stride elements apart, or the §4.7 jittered spacing, blocks
// that touch merged into one run.
func segmentsOf(w core.Workload) []layout.Segment {
	var segs []layout.Segment
	if w.Jitter > 0 {
		segs = layout.Jittered(int64(w.Count), int64(w.BlockLen), int64(w.Stride), w.Jitter)
	} else {
		for i := 0; i < w.Count; i++ {
			if n := len(segs); n > 0 && w.Stride == w.BlockLen {
				segs[n-1].Len += int64(w.BlockLen)
			} else {
				segs = append(segs, layout.Segment{Off: int64(i * w.Stride), Len: int64(w.BlockLen)})
			}
		}
	}
	for i := range segs {
		segs[i].Off *= core.ElemSize
		segs[i].Len *= core.ElemSize
	}
	return segs
}
