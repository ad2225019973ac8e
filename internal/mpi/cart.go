package mpi

import "fmt"

// ProcNull is the neighbour value for "off the edge of a
// non-periodic Cartesian grid", the analogue of MPI_PROC_NULL.
// Communication calls reject it; callers test for it the way MPI
// codes do.
const ProcNull = -2

// Cart is a Cartesian process topology over a communicator, the
// analogue of an MPI_Cart_create communicator. Rank order is row
// major, like MPI's.
type Cart struct {
	dims    []int
	periods []bool
	coords  []int
}

// CartCreate builds a Cartesian topology; the product of dims must
// equal the communicator size. It is collective only in the trivial
// sense (no communication): every rank derives the same mapping.
func (c *Comm) CartCreate(dims []int, periods []bool) (*Cart, error) {
	if len(dims) == 0 || len(periods) != len(dims) {
		return nil, fmt.Errorf("%w: cart dims/periods %d/%d", ErrCount, len(dims), len(periods))
	}
	total := 1
	for d, n := range dims {
		if n <= 0 {
			return nil, fmt.Errorf("%w: cart dim %d = %d", ErrCount, d, n)
		}
		total *= n
	}
	if total != c.size {
		return nil, fmt.Errorf("%w: cart holds %d ranks, communicator has %d", ErrRank, total, c.size)
	}
	ct := &Cart{
		dims:    append([]int(nil), dims...),
		periods: append([]bool(nil), periods...),
	}
	ct.coords = ct.coordsOf(c.rank)
	return ct, nil
}

// coordsOf converts a rank to row-major coordinates.
func (ct *Cart) coordsOf(rank int) []int {
	coords := make([]int, len(ct.dims))
	for d := len(ct.dims) - 1; d >= 0; d-- {
		coords[d] = rank % ct.dims[d]
		rank /= ct.dims[d]
	}
	return coords
}

// Rank converts grid coordinates to a rank (MPI_Cart_rank). Periodic
// dimensions wrap; out-of-range coordinates on non-periodic dimensions
// return ProcNull.
func (ct *Cart) Rank(coords []int) (int, error) {
	if len(coords) != len(ct.dims) {
		return ProcNull, fmt.Errorf("%w: %d coords for %d dims", ErrCount, len(coords), len(ct.dims))
	}
	rank := 0
	for d, x := range coords {
		n := ct.dims[d]
		if ct.periods[d] {
			x = ((x % n) + n) % n
		} else if x < 0 || x >= n {
			return ProcNull, nil
		}
		rank = rank*n + x
	}
	return rank, nil
}

// Shift returns the source and destination ranks of a displacement
// along one dimension, like MPI_Cart_shift: a receive from src and a
// send to dst moves data in the +disp direction. Either may be
// ProcNull at a non-periodic edge.
func (ct *Cart) Shift(dim, disp int) (src, dst int, err error) {
	if dim < 0 || dim >= len(ct.dims) {
		return ProcNull, ProcNull, fmt.Errorf("%w: cart dim %d of %d", ErrCount, dim, len(ct.dims))
	}
	up := append([]int(nil), ct.coords...)
	up[dim] += disp
	down := append([]int(nil), ct.coords...)
	down[dim] -= disp
	dst, err = ct.Rank(up)
	if err != nil {
		return ProcNull, ProcNull, err
	}
	src, err = ct.Rank(down)
	if err != nil {
		return ProcNull, ProcNull, err
	}
	return src, dst, nil
}

// DimsCreate factors size into ndims balanced dimensions, largest
// first, like MPI_Dims_create with all-zero input.
func DimsCreate(size, ndims int) ([]int, error) {
	if size <= 0 || ndims <= 0 {
		return nil, fmt.Errorf("%w: DimsCreate(%d, %d)", ErrCount, size, ndims)
	}
	dims := make([]int, ndims)
	for i := range dims {
		dims[i] = 1
	}
	// Collect the prime factors, then assign them largest-first onto
	// the currently smallest dimension — the balanced decomposition
	// MPI_Dims_create produces (12 over 2 dims → 4×3, not 6×2).
	var factors []int
	n := size
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			factors = append(factors, f)
			n /= f
		}
	}
	if n > 1 {
		factors = append(factors, n)
	}
	for i := len(factors) - 1; i >= 0; i-- {
		smallestIdx := 0
		for j := 1; j < ndims; j++ {
			if dims[j] < dims[smallestIdx] {
				smallestIdx = j
			}
		}
		dims[smallestIdx] *= factors[i]
	}
	// Largest first, MPI convention.
	for i := 0; i < ndims; i++ {
		for j := i + 1; j < ndims; j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims, nil
}
