// Package core implements the paper's contribution as a reusable
// library: the eight schemes for sending non-contiguous data that the
// study compares (§2), behind one Runner interface driven by the
// ping-pong harness, plus the recommendation engine that
// operationalises the paper's conclusion (§5).
//
// Scheme ↔ paper legend mapping:
//
//	Reference    "reference"   contiguous MPI_Send baseline
//	Copying      "copying"     manual gather loop + MPI_Send
//	Buffered     "buffered"    MPI_Buffer_attach + MPI_Bsend of a derived type
//	VectorType   "vector type" MPI_Type_vector sent directly
//	Subarray     "subarray"    MPI_Type_create_subarray sent directly
//	OneSided     "onesided"    MPI_Put of a derived type between MPI_Win_fence pairs
//	PackElement  "packing(e)"  one MPI_Pack call per element, send the buffer
//	PackVector   "packing(v)"  one MPI_Pack call on a vector type, send the buffer
//
// Beyond the paper's eight, PackCompiled ("packing(c)") packs through
// the compiled pack-plan engine (internal/datatype/plan.go): the same
// single pack call as packing(v), but executed by a specialized kernel
// with amortised per-segment bookkeeping instead of generic
// interpretation — the compiled-vs-interpreted comparison column.
//
// Sendv ("sendv") is the tenth scheme: the fused zero-copy rendezvous
// (mpi.SendvType), where the compiled plan scatters the sender's
// layout straight into the receiver's buffer in one pass — no staging
// buffer, no MPI-internal chunking, no receive-side unpack. It is the
// engine-level answer to the paper's finding that the redundant
// software copy, not the wire, is what non-contiguous sends pay for.
//
// TypedPipelined ("pipelined") is the eleventh: the software-pipelined
// typed send (mpi.SendpType). The paper's §2.3 observes the chunked
// derived-type send serialising pack and inject — and that pipelining
// the two stages would recover the reference rate, which "in practice
// we don't see". The pipelined scheme realises that overlap in
// software: the rendezvous chunk loop runs on a slot ring with a pack
// worker a configurable depth ahead of injection, so the span
// collapses to the two-stage pipeline bound while the transfer still
// stages through MPI-internal chunks (unlike sendv, which needs a
// scatter-capable receive path).
package core

import (
	"fmt"
)

// Scheme identifies one of the paper's send schemes.
type Scheme int

// The eight schemes of the study, in the order of the figures'
// legend, plus the compiled-pack, fused-rendezvous and
// pipelined-typed schemes appended after them.
const (
	Reference Scheme = iota
	Copying
	Buffered
	VectorType
	Subarray
	OneSided
	PackElement
	PackVector
	PackCompiled
	Sendv
	TypedPipelined
)

var schemeNames = map[Scheme]string{
	Reference:      "reference",
	Copying:        "copying",
	Buffered:       "buffered",
	VectorType:     "vector type",
	Subarray:       "subarray",
	OneSided:       "onesided",
	PackElement:    "packing(e)",
	PackVector:     "packing(v)",
	PackCompiled:   "packing(c)",
	Sendv:          "sendv",
	TypedPipelined: "pipelined",
}

// String returns the paper's legend label for the scheme.
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Schemes lists all schemes in legend order.
func Schemes() []Scheme {
	return []Scheme{Reference, Copying, Buffered, VectorType, Subarray, OneSided, PackElement, PackVector, PackCompiled, Sendv, TypedPipelined}
}
