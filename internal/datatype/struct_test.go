package datatype

import (
	"fmt"

	"repro/internal/layout"
)

// Struct builds a heterogeneous type: blocklens[i] copies of types[i]
// at byte displacement displs[i] (MPI_Type_create_struct). The extent
// is padded to the alignment of the largest basic component, the
// "epsilon" of the MPI standard.
func Struct(blocklens []int, displs []int64, types []*Type) (*Type, error) {
	if len(blocklens) != len(displs) || len(blocklens) != len(types) {
		return nil, fmt.Errorf("%w: struct arrays disagree: %d/%d/%d", ErrArgument, len(blocklens), len(displs), len(types))
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("%w: empty struct", ErrArgument)
	}
	var segs []layout.Segment
	var size int64
	var align int64 = 1
	lb, ub := int64(0), int64(0)
	first := true
	for i, ft := range types {
		if err := checkBase(ft); err != nil {
			return nil, fmt.Errorf("struct field %d: %w", i, err)
		}
		if blocklens[i] < 0 {
			return nil, fmt.Errorf("%w: struct field %d blocklen %d", ErrArgument, i, blocklens[i])
		}
		if ft.alignment > align {
			align = ft.alignment
		}
		if blocklens[i] == 0 {
			continue
		}
		block, err := replicate(ft.r, ft.Extent(), int64(blocklens[i]))
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
		size += int64(blocklens[i]) * ft.size
		flb := displs[i] + ft.lb
		fub := displs[i] + ft.lb + int64(blocklens[i])*ft.Extent()
		if first || flb < lb {
			lb = flb
		}
		if first || fub > ub {
			ub = fub
		}
		first = false
	}
	// Pad the upper bound to the strictest member alignment.
	if span := ub - lb; span%align != 0 {
		ub += align - span%align
	}
	r, err := irregularRuns(segs)
	if err != nil {
		return nil, err
	}
	return &Type{
		kind:      KindStruct,
		size:      size,
		lb:        lb,
		ub:        ub,
		alignment: align,
		r:         r,
	}, nil
}
