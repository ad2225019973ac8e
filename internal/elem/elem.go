// Package elem provides typed element views over byte blocks.
//
// The runtime moves raw bytes (internal/buf); applications think in
// float64 grids, complex128 signals and int32 index lists. elem bridges
// the two with explicit little-endian encoding from the standard
// library — no unsafe — which keeps the data movement observable and
// portable at the cost of a conversion the real MPI would not pay.
// That cost is irrelevant here because measured time comes from the
// virtual clock, not from Go's execution speed.
package elem

import (
	"encoding/binary"
	"math"

	"repro/internal/buf"
)

// Sizes of the supported element types in bytes, mirroring the MPI
// basic datatypes the paper's benchmark uses.
const (
	Float64Size    = 8
	Int64Size      = 8
	Complex128Size = 16
)

// PutFloat64 stores v as the i-th float64 of the block.
func PutFloat64(b buf.Block, i int, v float64) {
	if b.IsVirtual() {
		return
	}
	binary.LittleEndian.PutUint64(b.Bytes()[i*Float64Size:], math.Float64bits(v))
}

// Float64 loads the i-th float64 of the block. Virtual blocks read as
// zero.
func Float64(b buf.Block, i int) float64 {
	if b.IsVirtual() {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Bytes()[i*Float64Size:]))
}

// PutInt64 stores v as the i-th int64 of the block.
func PutInt64(b buf.Block, i int, v int64) {
	if b.IsVirtual() {
		return
	}
	binary.LittleEndian.PutUint64(b.Bytes()[i*Int64Size:], uint64(v))
}

// Int64 loads the i-th int64 of the block.
func Int64(b buf.Block, i int) int64 {
	if b.IsVirtual() {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b.Bytes()[i*Int64Size:]))
}

// PutComplex128 stores v as the i-th complex128 of the block (real
// part first, then imaginary, both little-endian float64 — the same
// memory layout C and Fortran use, which is what makes "send only the
// real parts" a strided layout with stride 16 and block length 8).
func PutComplex128(b buf.Block, i int, v complex128) {
	if b.IsVirtual() {
		return
	}
	off := i * Complex128Size
	binary.LittleEndian.PutUint64(b.Bytes()[off:], math.Float64bits(real(v)))
	binary.LittleEndian.PutUint64(b.Bytes()[off+8:], math.Float64bits(imag(v)))
}
