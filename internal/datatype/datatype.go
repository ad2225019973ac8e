// Package datatype implements MPI derived datatypes from scratch: the
// type constructors (contiguous, vector, hvector, indexed, hindexed,
// indexed-block, struct, subarray, resized), the size/extent algebra
// with lower/upper bounds, commit-time flattening, and pack/unpack
// engines.
//
// # Representation
//
// A committed type is canonicalised to a runs value: either a *regular*
// pattern (n runs of runLen bytes, gap bytes apart — closed form, O(1)
// random access, no materialisation even for 10⁸ segments) or an
// explicit sorted, coalesced segment list for irregular types, whose
// size is bounded by the user's constructor arrays. This mirrors what
// production MPIs do at MPI_Type_commit ("flattening") and is what
// makes million-segment vector types affordable.
//
// # Semantics
//
// Displacements are relative to the buffer a type is used with, as in
// MPI. Extent and repetition follow the MPI standard: element i of a
// count-element message starts i*extent into the buffer. Struct types
// pad the upper bound to the alignment of their largest basic
// component. Resized overrides lb/extent without moving data.
//
// # Execution tiers
//
// Pack and unpack traffic runs on one of two compiled engines:
//
//  1. Compiled (whole message): a full-message Pack/Unpack — or a
//     Packer/Unpacker stream drained in one call — executes the
//     compiled plan (plan.go) bound to (type, count),
//     goroutine-parallel from ParallelPackThreshold bytes. A plan is one
//     strided-block form (block.go) — a regular instance, a block
//     pattern the normalizer found, or a dense message, with count as
//     its outermost level — or a gather table for irregular instances;
//     each has one range executor. Plans are cached per type and count;
//     the program is compiled and normalized at Commit, so steady-state
//     packing does no compilation and no allocation.
//  2. Compiled-chunked: partial-range transfers (the chunked and
//     pipelined streaming of internal/mpi's rendezvous sends) enter
//     the same executors mid-stream — one seek, then the batched
//     moves — resuming exactly where the previous chunk stopped.
//
// The interpreting cursor — a generic segment walker over the raw
// flattened runs — lives only in the package's tests, as the
// differential oracle both engines are checked against.
//
// PlanStats attributes every byte to the tier and the kernel label
// (PlanKernel) of the plan that moved it.
package datatype

import (
	"errors"
	"fmt"
)

// Kind discriminates the constructor family of a type.
type Kind int

// Constructor kinds.
const (
	KindBasic Kind = iota
	KindContiguous
	KindVector
	KindHvector
	KindIndexed
	KindHindexed
	KindIndexedBlock
	KindStruct
	KindSubarray
	KindResized
)

var kindNames = map[Kind]string{
	KindBasic:        "basic",
	KindContiguous:   "contiguous",
	KindVector:       "vector",
	KindHvector:      "hvector",
	KindIndexed:      "indexed",
	KindHindexed:     "hindexed",
	KindIndexedBlock: "indexed_block",
	KindStruct:       "struct",
	KindSubarray:     "subarray",
	KindResized:      "resized",
}

// String returns the constructor name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Errors returned by the datatype layer.
var (
	// ErrNotCommitted is returned when an uncommitted type is used in
	// communication or packing, mirroring MPI's requirement to call
	// MPI_Type_commit first.
	ErrNotCommitted = errors.New("datatype: type not committed")
	// ErrArgument is returned for invalid constructor arguments.
	ErrArgument = errors.New("datatype: invalid argument")
	// ErrBounds is returned when packing would touch bytes outside the
	// user buffer.
	ErrBounds = errors.New("datatype: access outside buffer bounds")
	// ErrTruncate is returned when a destination is too small for the
	// packed payload.
	ErrTruncate = errors.New("datatype: message truncated")
	// ErrOverlap is returned by constructors whose resulting typemap
	// would make repeated instances ambiguous for receive operations.
	ErrOverlap = errors.New("datatype: overlapping typemap")
)

// Type is an MPI-style datatype. Types are immutable after Commit and
// safe for concurrent use by multiple ranks.
type Type struct {
	kind      Kind
	name      string
	committed bool

	size int64 // payload bytes per instance
	lb   int64 // lower bound
	ub   int64 // upper bound (includes struct padding / resize)

	r runs // canonical flattened form (valid after construction)

	// alignment is the largest basic-type size in the tree; struct
	// extent is padded to it, as real MPIs do with the epsilon term.
	alignment int64

	// plans caches the compiled pack plan program (see plan.go). It is
	// allocated at Commit so the Type value stays copyable.
	plans *planCache
}

// Name returns the debug name.
func (t *Type) Name() string { return t.name }

// Size returns the payload bytes of one instance (MPI_Type_size).
func (t *Type) Size() int64 { return t.size }

// Extent returns ub-lb (MPI_Type_get_extent).
func (t *Type) Extent() int64 { return t.ub - t.lb }

// UB returns the upper bound.
func (t *Type) UB() int64 { return t.ub }

// TrueLB returns the lowest byte offset actually read or written,
// ignoring Resized adjustments (MPI_Type_get_true_extent).
func (t *Type) TrueLB() int64 {
	if t.r.n == 0 {
		return 0
	}
	return t.r.first()
}

// TrueExtent returns the span from the first to one past the last byte
// actually touched.
func (t *Type) TrueExtent() int64 {
	if t.r.n == 0 {
		return 0
	}
	return t.r.last() - t.r.first()
}

// Commit finalises the type for use in communication, like
// MPI_Type_commit. Committing twice is a no-op. Basic types are born
// committed. Commit also compiles the type's pack-plan program (the
// count-independent kernel geometry), so the compile cost is paid here
// — outside any communication path — exactly where real MPIs flatten.
func (t *Type) Commit() error {
	if t == nil {
		return fmt.Errorf("%w: nil type", ErrArgument)
	}
	t.committed = true
	if t.plans == nil {
		t.plans = &planCache{}
	}
	t.prog()
	return nil
}

// SegmentCount returns the number of contiguous runs of one instance
// after flattening and coalescing.
func (t *Type) SegmentCount() int64 { return t.r.n }

// Contiguous reports whether one instance is a single dense run whose
// extent equals its size, i.e. repetition stays contiguous.
func (t *Type) IsContiguous() bool {
	return t.r.n == 1 && t.r.regular && t.size == t.Extent() && t.r.start == t.lb
}

// String renders the type for diagnostics.
func (t *Type) String() string {
	if t.name != "" {
		return t.name
	}
	return fmt.Sprintf("%s{size=%d extent=%d segs=%d}", t.kind, t.size, t.Extent(), t.r.n)
}
