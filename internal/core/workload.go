package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/layout"
)

// ElemSize is the element size of the benchmark workloads: float64,
// as in the paper.
const ElemSize = 8

// Workload describes the strided payload of one measurement: Count
// blocks of BlockLen float64 elements, block starts Stride elements
// apart. The paper's canonical case ("the very simplest case of a
// derived type", §4.7) is BlockLen 1, Stride 2 — every other element.
type Workload struct {
	Count    int
	BlockLen int
	Stride   int
	// Jitter in (0,1] makes the inter-block gaps irregular by up to
	// ±Jitter of the nominal gap (element-aligned, deterministic),
	// the §4.7 "less regular spacing" study. Zero means the exact
	// stride.
	Jitter float64
	// Virtual makes the payload length-only: all protocol steps and
	// costs happen, but no bytes are materialised. The harness turns
	// this on above its real-size cap so the 10⁹-byte end of the
	// paper's sweeps stays laptop-sized.
	Virtual bool
}

// Validate checks the geometry.
func (w Workload) Validate() error {
	switch {
	case w.Count < 0 || w.BlockLen <= 0 || w.Stride <= 0:
		return fmt.Errorf("core: bad workload %+v", w)
	case w.Stride < w.BlockLen:
		return fmt.Errorf("core: workload stride %d under block length %d", w.Stride, w.BlockLen)
	case w.Jitter < 0 || w.Jitter > 1:
		return fmt.Errorf("core: workload jitter %v outside [0,1]", w.Jitter)
	}
	return nil
}

// Bytes returns the payload size: the bytes actually transferred.
func (w Workload) Bytes() int64 {
	return int64(w.Count) * int64(w.BlockLen) * ElemSize
}

// Elems returns the element count of the payload.
func (w Workload) Elems() int { return w.Count * w.BlockLen }

// SrcBytes returns the source allocation size shared by all schemes:
// Count whole strides (which covers both the vector type's extent and
// the subarray type's full parent matrix), widened when jitter pushes
// blocks past the nominal extent.
func (w Workload) SrcBytes() int64 {
	n := int64(w.Count) * int64(w.Stride) * ElemSize
	if w.Jitter > 0 {
		if e := w.Layout().Extent(); e > n {
			n = e
		}
	}
	return n
}

// Layout returns the workload's geometric layout in bytes: an exact
// stride, or the deterministic jittered variant for the §4.7 study.
// Jittered gaps stay element-aligned so derived types remain valid.
func (w Workload) Layout() layout.Layout {
	if w.Jitter > 0 {
		elems := layout.Jittered(int64(w.Count), int64(w.BlockLen), int64(w.Stride), w.Jitter)
		segs := layout.Segments(elems)
		for i := range segs {
			segs[i].Off *= ElemSize
			segs[i].Len *= ElemSize
		}
		return layout.MustIndexed(segs)
	}
	return layout.Strided{
		Count:    int64(w.Count),
		BlockLen: int64(w.BlockLen) * ElemSize,
		Stride:   int64(w.Stride) * ElemSize,
	}
}

// ForBytes builds the canonical every-other-element workload whose
// payload is at least n bytes (rounded up to a whole element).
func ForBytes(n int64) Workload {
	count := int((n + ElemSize - 1) / ElemSize)
	if count < 1 {
		count = 1
	}
	return Workload{Count: count, BlockLen: 1, Stride: 2}
}

// VectorType builds the derived type describing the workload: an
// MPI_Type_vector for exact strides, an MPI_Type_create_hindexed for
// jittered ones.
func (w Workload) VectorType() (*datatype.Type, error) {
	if w.Jitter > 0 {
		var blocklens []int
		var displs []int64
		w.Layout().ForEach(func(s layout.Segment) bool {
			blocklens = append(blocklens, int(s.Len/ElemSize))
			displs = append(displs, s.Off)
			return true
		})
		ty, err := datatype.Hindexed(blocklens, displs, datatype.Float64)
		if err != nil {
			return nil, err
		}
		return ty, ty.Commit()
	}
	ty, err := datatype.Vector(w.Count, w.BlockLen, w.Stride, datatype.Float64)
	if err != nil {
		return nil, err
	}
	return ty, ty.Commit()
}

// SubarrayType builds the MPI_Type_create_subarray equivalent: a
// Count×BlockLen block out of a Count×Stride element matrix — the
// same geometry as the vector type, constructed the subarray way, so
// the "subarray" curve isolates constructor overheads rather than
// layout differences, as in the paper.
func (w Workload) SubarrayType() (*datatype.Type, error) {
	if w.Jitter > 0 {
		return nil, fmt.Errorf("core: a subarray cannot describe a jittered layout")
	}
	count := w.Count
	if count == 0 {
		count = 1
	}
	ty, err := datatype.Subarray(
		[]int{count, w.Stride},
		[]int{w.Count, w.BlockLen},
		[]int{0, 0},
		datatype.OrderC,
		datatype.Float64,
	)
	if err != nil {
		return nil, err
	}
	return ty, ty.Commit()
}
