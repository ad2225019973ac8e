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
//
// The geometry exists once, as the workload's derived type: VectorType
// commits it, Stats reads its closed form, and every scheme is priced
// and charged from those statistics. Only the manual copy walks the
// bytes without it, as the user's own loop.
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
// the subarray type's full parent matrix), widened to the end of the
// last jittered segment when jitter pushes blocks past the nominal
// extent.
func (w Workload) SrcBytes() int64 {
	n := int64(w.Count) * int64(w.Stride) * ElemSize
	if segs := w.segments(); len(segs) > 0 {
		n = max(n, segs[len(segs)-1].End())
	}
	return n
}

// segments returns the byte segments of a jittered workload — the
// deterministic §4.7 variant, gaps element-aligned so the derived type
// stays valid — and nil for an exact stride, which the derived type
// and the manual copy both describe without a list.
func (w Workload) segments() []layout.Segment {
	var segs []layout.Segment
	if w.Jitter > 0 {
		segs = layout.Jittered(int64(w.Count), int64(w.BlockLen), int64(w.Stride), w.Jitter)
	}
	for i := range segs {
		segs[i].Off *= ElemSize
		segs[i].Len *= ElemSize
	}
	return segs
}

// Stats returns the layout statistics of the workload: the closed form
// of its derived type, left uncommitted so no pack plan is compiled.
// Every scheme is priced and charged from these numbers, so they are
// one geometry whichever way the bytes move.
func (w Workload) Stats() (layout.Stats, error) {
	ty, err := w.build()
	if err != nil {
		return layout.Stats{}, err
	}
	return ty.Stats(1), nil
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

// VectorType builds and commits the derived type describing the
// workload: an MPI_Type_vector for exact strides, an
// MPI_Type_create_hindexed over the jittered segments otherwise.
func (w Workload) VectorType() (*datatype.Type, error) {
	ty, err := w.build()
	if err != nil {
		return nil, err
	}
	return ty, ty.Commit()
}

// build makes the workload's derived type, uncommitted.
func (w Workload) build() (*datatype.Type, error) {
	if w.Jitter > 0 {
		segs := w.segments()
		blocklens, displs := make([]int, len(segs)), make([]int64, len(segs))
		for i, s := range segs {
			blocklens[i], displs[i] = int(s.Len/ElemSize), s.Off
		}
		return datatype.Hindexed(blocklens, displs, datatype.Float64)
	}
	return datatype.Vector(w.Count, w.BlockLen, w.Stride, datatype.Float64)
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
