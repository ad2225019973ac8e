package datatype

import (
	"fmt"

	"repro/internal/layout"
)

// Basic predeclared types, mirroring the MPI basic datatypes the
// benchmark uses. They are committed at package initialisation.
var (
	Byte       = newBasic("MPI_BYTE", 1)
	Char       = newBasic("MPI_CHAR", 1)
	Int32      = newBasic("MPI_INT32", 4)
	Int64      = newBasic("MPI_INT64", 8)
	Float32    = newBasic("MPI_FLOAT", 4)
	Float64    = newBasic("MPI_DOUBLE", 8)
	Complex128 = newBasic("MPI_DOUBLE_COMPLEX", 16)
)

func newBasic(name string, size int64) *Type {
	return &Type{
		kind:      KindBasic,
		name:      name,
		committed: true,
		size:      size,
		lb:        0,
		ub:        size,
		alignment: size,
		r:         regularRuns(0, size, 0, 1),
		plans:     &planCache{},
	}
}

// Packed is the analogue of MPI_PACKED: a committed byte type used as
// the element type of explicitly packed buffers.
var Packed = newBasic("MPI_PACKED", 1)

// Contiguous builds a type of count consecutive copies of base
// (MPI_Type_contiguous).
func Contiguous(count int, base *Type) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("%w: contiguous count %d", ErrArgument, count)
	}
	r, err := replicate(base.r, base.Extent(), int64(count))
	if err != nil {
		return nil, err
	}
	t := &Type{
		kind:      KindContiguous,
		size:      int64(count) * base.size,
		lb:        base.lb,
		ub:        base.lb + int64(count)*base.Extent(),
		alignment: base.alignment,
		r:         r,
	}
	if count == 0 {
		t.lb, t.ub = 0, 0
	}
	return t, nil
}

// Vector builds count blocks of blocklen base elements whose starts
// are stride base-extents apart (MPI_Type_vector). stride may exceed
// blocklen (gaps) or equal it (contiguous); negative strides are not
// supported because our buffers are addressed from offset zero.
func Vector(count, blocklen, stride int, base *Type) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	return hvector(KindVector, count, blocklen, int64(stride)*base.Extent(), base)
}

// Hvector is Vector with the stride given in bytes
// (MPI_Type_create_hvector).
func Hvector(count, blocklen int, strideBytes int64, base *Type) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	return hvector(KindHvector, count, blocklen, strideBytes, base)
}

func hvector(kind Kind, count, blocklen int, strideBytes int64, base *Type) (*Type, error) {
	if count < 0 || blocklen < 0 {
		return nil, fmt.Errorf("%w: vector count %d blocklen %d", ErrArgument, count, blocklen)
	}
	if count > 0 && blocklen > 0 && strideBytes < 0 {
		return nil, fmt.Errorf("%w: negative stride %d not supported", ErrArgument, strideBytes)
	}
	// One block: blocklen contiguous copies of base.
	block, err := replicate(base.r, base.Extent(), int64(blocklen))
	if err != nil {
		return nil, err
	}
	blockExtent := int64(blocklen) * base.Extent()
	if count > 0 && blocklen > 0 && strideBytes < blockExtent {
		return nil, fmt.Errorf("%w: stride %d bytes under block extent %d", ErrOverlap, strideBytes, blockExtent)
	}
	var r runs
	if block.regular && block.n == 1 {
		// The common dense-block case: a pure regular pattern. The
		// stride must clear the block's real payload run, not just its
		// extent: a Resized base can shrink the extent under the run,
		// and blockExtent alone would let this path build overlapping
		// runs with a negative gap (the general replicate path below
		// rejects the same shape with ErrOverlap).
		if count > 1 && strideBytes < block.runLen {
			return nil, fmt.Errorf("%w: stride %d bytes under block run of %d", ErrOverlap, strideBytes, block.runLen)
		}
		r = regularRuns(block.start, block.runLen, strideBytes-block.runLen, int64(count))
	} else {
		r, err = replicate(block, strideBytes, int64(count))
		if err != nil {
			return nil, err
		}
	}
	var ub int64
	if count > 0 && blocklen > 0 {
		ub = base.lb + int64(count-1)*strideBytes + blockExtent
	}
	t := &Type{
		kind:      kind,
		size:      int64(count) * int64(blocklen) * base.size,
		lb:        base.lb,
		ub:        ub,
		alignment: base.alignment,
		r:         r,
	}
	if t.size == 0 {
		t.lb, t.ub = 0, 0
	}
	return t, nil
}

// Indexed builds blocks of blocklens[i] base elements displaced by
// displs[i] base-extents (MPI_Type_indexed).
func Indexed(blocklens, displs []int, base *Type) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if len(blocklens) != len(displs) {
		return nil, fmt.Errorf("%w: %d blocklens but %d displacements", ErrArgument, len(blocklens), len(displs))
	}
	bdispls := make([]int64, len(displs))
	for i, d := range displs {
		bdispls[i] = int64(d) * base.Extent()
	}
	blens := append([]int(nil), blocklens...)
	return hindexed(KindIndexed, blens, bdispls, base)
}

// Hindexed is Indexed with byte displacements
// (MPI_Type_create_hindexed).
func Hindexed(blocklens []int, displsBytes []int64, base *Type) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if len(blocklens) != len(displsBytes) {
		return nil, fmt.Errorf("%w: %d blocklens but %d displacements", ErrArgument, len(blocklens), len(displsBytes))
	}
	return hindexed(KindHindexed, append([]int(nil), blocklens...), append([]int64(nil), displsBytes...), base)
}

// IndexedBlock builds equally sized blocks at the given base-extent
// displacements (MPI_Type_create_indexed_block).
func IndexedBlock(blocklen int, displs []int, base *Type) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	blocklens := make([]int, len(displs))
	bdispls := make([]int64, len(displs))
	for i, d := range displs {
		blocklens[i] = blocklen
		bdispls[i] = int64(d) * base.Extent()
	}
	return hindexed(KindIndexedBlock, blocklens, bdispls, base)
}

func hindexed(kind Kind, blocklens []int, displs []int64, base *Type) (*Type, error) {
	var segs []layout.Segment
	var size int64
	lb, ub := int64(0), int64(0)
	first := true
	for i, bl := range blocklens {
		if bl < 0 {
			return nil, fmt.Errorf("%w: blocklen %d", ErrArgument, bl)
		}
		if bl == 0 {
			continue
		}
		block, err := replicate(base.r, base.Extent(), int64(bl))
		if err != nil {
			return nil, err
		}
		block = block.shifted(displs[i])
		if !block.forEach(0, func(s layout.Segment) bool {
			segs = append(segs, s)
			return int64(len(segs)) <= maxMaterialize
		}) {
			return nil, errTooManySegments(int64(len(segs)))
		}
		size += int64(bl) * base.size
		blb := displs[i] + base.lb
		bub := displs[i] + base.lb + int64(bl)*base.Extent()
		if first || blb < lb {
			lb = blb
		}
		if first || bub > ub {
			ub = bub
		}
		first = false
	}
	r, err := irregularRuns(segs)
	if err != nil {
		return nil, err
	}
	return &Type{
		kind:      kind,
		size:      size,
		lb:        lb,
		ub:        ub,
		alignment: base.alignment,
		r:         r,
	}, nil
}

// Order selects array storage order for Subarray.
type Order int

// Storage orders, mirroring MPI_ORDER_C and MPI_ORDER_FORTRAN.
const (
	OrderC Order = iota
	OrderFortran
)

// Subarray selects a rectangular region of an N-dimensional array
// (MPI_Type_create_subarray): sizes is the full array shape, subsizes
// the selected block, starts its origin, all in elements of base.
// Like MPI, the extent of the resulting type is the extent of the
// whole parent array.
func Subarray(sizes, subsizes, starts []int, order Order, base *Type) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	nd := len(sizes)
	if nd == 0 || len(subsizes) != nd || len(starts) != nd {
		return nil, fmt.Errorf("%w: subarray dims disagree: %d/%d/%d", ErrArgument, nd, len(subsizes), len(starts))
	}
	for d := 0; d < nd; d++ {
		if sizes[d] <= 0 || subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			return nil, fmt.Errorf("%w: subarray dim %d: size %d subsize %d start %d", ErrArgument, d, sizes[d], subsizes[d], starts[d])
		}
	}
	// Normalise to C order: dimension 0 slowest.
	csizes := append([]int(nil), sizes...)
	csub := append([]int(nil), subsizes...)
	cstart := append([]int(nil), starts...)
	if order == OrderFortran {
		reverse(csizes)
		reverse(csub)
		reverse(cstart)
	}
	ext := base.Extent()
	// A dense base (one run filling its whole extent from offset zero)
	// lets whole rows collapse to single closed-form runs. Non-dense
	// bases (derived types with gaps) replicate their real run pattern
	// instead — treating them as ext-sized blocks would build a type
	// whose flattened runs disagree with its payload size.
	dense := base.IsContiguous() && base.lb == 0
	// Row length in elements of the fastest dimension.
	rowElems := int64(csub[nd-1])
	parentRow := int64(csizes[nd-1])
	// One innermost row of the selection: rowElems consecutive copies
	// of the base pattern.
	rowRuns, err := replicate(base.r, ext, rowElems)
	if err != nil {
		return nil, err
	}
	// Build the runs: iterate all outer index tuples, emit one row per
	// innermost index. The row count is the product of outer subsizes.
	nrows := int64(1)
	for d := 0; d < nd-1; d++ {
		nrows *= int64(csub[d])
	}
	var totalElems int64 = nrows * rowElems
	var r runs
	switch {
	case totalElems == 0:
		r = emptyRuns()
	case nd == 1 || nrows == 1:
		off := int64(0)
		stride := int64(1)
		for d := nd - 1; d >= 0; d-- {
			off += int64(cstart[d]) * stride
			stride *= int64(csizes[d])
		}
		if dense {
			r = regularRuns(off*ext, rowElems*ext, 0, 1)
		} else {
			r = rowRuns.shifted(off * ext)
		}
	case nd == 2 && dense:
		off := (int64(cstart[0])*parentRow + int64(cstart[1])) * ext
		r = regularRuns(off, rowElems*ext, (parentRow-rowElems)*ext, int64(csub[0]))
	default:
		// General case (N-d, or a non-dense base): materialise the
		// rows, one run per row for dense bases, the replicated base
		// pattern otherwise. Division keeps the bound overflow-safe for
		// huge outer subsizes.
		if rowRuns.n > 0 && nrows > maxMaterialize/rowRuns.n {
			return nil, errTooManySegments(nrows)
		}
		strides := make([]int64, nd) // element stride of each dim in the parent
		strides[nd-1] = 1
		for d := nd - 2; d >= 0; d-- {
			strides[d] = strides[d+1] * int64(csizes[d+1])
		}
		idx := make([]int, nd-1)
		segs := make([]layout.Segment, 0, nrows*rowRuns.n)
		for {
			off := int64(cstart[nd-1])
			for d := 0; d < nd-1; d++ {
				off += int64(cstart[d]+idx[d]) * strides[d]
			}
			if dense {
				segs = append(segs, layout.Segment{Off: off * ext, Len: rowElems * ext})
			} else {
				rowRuns.forEach(off*ext, func(s layout.Segment) bool {
					segs = append(segs, s)
					return true
				})
			}
			// Odometer increment over the outer dimensions.
			d := nd - 2
			for ; d >= 0; d-- {
				idx[d]++
				if idx[d] < csub[d] {
					break
				}
				idx[d] = 0
			}
			if d < 0 {
				break
			}
		}
		r, err = irregularRuns(segs)
		if err != nil {
			return nil, err
		}
	}
	parentElems := int64(1)
	for _, s := range csizes {
		parentElems *= int64(s)
	}
	return &Type{
		kind:      KindSubarray,
		size:      totalElems * base.size,
		lb:        0,
		ub:        parentElems * ext, // MPI: extent of the whole parent array
		alignment: base.alignment,
		r:         r,
	}, nil
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Resized overrides lb and extent without moving data
// (MPI_Type_create_resized).
func Resized(base *Type, lb, extent int64) (*Type, error) {
	if err := checkBase(base); err != nil {
		return nil, err
	}
	if extent < 0 {
		return nil, fmt.Errorf("%w: negative extent %d", ErrArgument, extent)
	}
	return &Type{
		kind:      KindResized,
		size:      base.size,
		lb:        lb,
		ub:        lb + extent,
		alignment: base.alignment,
		r:         base.r,
	}, nil
}

func checkBase(base *Type) error {
	if base == nil {
		return fmt.Errorf("%w: nil base type", ErrArgument)
	}
	return nil
}
