package datatype

import (
	"unsafe"

	"repro/internal/buf"
)

// This file holds the two bodies that move bytes for every compiled
// engine of the package — pack, unpack, the chunked and pipelined
// ranges, the fused layout→layout copy and the contiguous landing all
// end here. The runs a non-contiguous layout decomposes into are mostly
// short — the paper's canonical case is an 8-byte double every 16 bytes
// — and at those lengths neither the per-call dispatch of the runtime
// memmove nor a slice bounds check per word is affordable: each costs
// more than the move.
//
// copyRunGroups is the strided move: a batch of equal runs at fixed
// strides on either side, bounds checked once for the batch, the runs of
// a word-sized length moved through pointers. The strided form's range
// executor (block.go) and the fused pair kernel over two forms
// (fused.go) cut their ranges into such batches; there is no other
// strided loop and no per-element-size copy of it. The checksum of the
// bytes moved is part of the move: when a *buf.Checksum rides along,
// the batch runs buf.Checksum.MoveRuns — the same loads and stores,
// each word folded while it is in a register — so a sender under
// faults packs and sums in one pass.
//
// copyRun is the single run, for what has no stride to batch over:
// gather-table segments, the partial runs a range edge cuts, and run
// lengths copyRunGroups has no word path for. It moves whole machine
// words instead of bytes: an aligned fast path issues true 8-byte (or
// 4-byte) loads and stores, a mutually-misaligned path falls back to
// alignment-free [8]byte array moves (which the compiler lowers to wide
// instructions on the targets we care about and to safe byte sequences
// elsewhere), and a byte tail finishes the 1–7 remaining bytes.
//
// Contract of both: dst and src must not overlap (the copies are
// forward-only and word-granular); callers owning potentially-aliased
// buffers must use the staged path. Bounds: every byte named by the
// arguments must lie inside its slice — enforced by one reslice before
// any byte moves, so a violating caller panics instead of corrupting
// memory.

// longRunCopy is the run length beyond which the runtime memmove —
// with its vectorised bulk loops — wins over the word loop and the
// call overhead is amortised anyway.
const longRunCopy = 256

// copyRun copies n bytes from src to dst, word-wide: len(dst) >= n and
// len(src) >= n. See the file comment for the overlap and bounds
// contract.
func copyRun(dst, src []byte, n int64) {
	if n <= 0 {
		return
	}
	dst, src = dst[:n], src[:n] // one bounds check; panics on misuse
	if n >= longRunCopy {
		copy(dst, src)
		return
	}
	dp := unsafe.Pointer(&dst[0])
	sp := unsafe.Pointer(&src[0])
	var i int64
	switch {
	case (uintptr(dp)^uintptr(sp))&7 == 0:
		// Co-aligned mod 8: a byte head brings both pointers to an
		// 8-byte boundary, then true word loads/stores.
		for ; i < n && uintptr(unsafe.Add(dp, i))&7 != 0; i++ {
			dst[i] = src[i]
		}
		for ; i+32 <= n; i += 32 {
			*(*uint64)(unsafe.Add(dp, i)) = *(*uint64)(unsafe.Add(sp, i))
			*(*uint64)(unsafe.Add(dp, i+8)) = *(*uint64)(unsafe.Add(sp, i+8))
			*(*uint64)(unsafe.Add(dp, i+16)) = *(*uint64)(unsafe.Add(sp, i+16))
			*(*uint64)(unsafe.Add(dp, i+24)) = *(*uint64)(unsafe.Add(sp, i+24))
		}
		for ; i+8 <= n; i += 8 {
			*(*uint64)(unsafe.Add(dp, i)) = *(*uint64)(unsafe.Add(sp, i))
		}
	case (uintptr(dp)^uintptr(sp))&3 == 0:
		// Co-aligned mod 4 only: 4-byte words after a byte head.
		for ; i < n && uintptr(unsafe.Add(dp, i))&3 != 0; i++ {
			dst[i] = src[i]
		}
		for ; i+4 <= n; i += 4 {
			*(*uint32)(unsafe.Add(dp, i)) = *(*uint32)(unsafe.Add(sp, i))
		}
	default:
		// Mutually misaligned: [8]byte has alignment 1, so these array
		// moves are legal at any address on every platform.
		for ; i+8 <= n; i += 8 {
			*(*[8]byte)(unsafe.Add(dp, i)) = *(*[8]byte)(unsafe.Add(sp, i))
		}
	}
	if i+4 <= n {
		*(*[4]byte)(unsafe.Add(dp, i)) = *(*[4]byte)(unsafe.Add(sp, i))
		i += 4
	}
	for ; i < n; i++ {
		dst[i] = src[i]
	}
}

// copyRunGroups is the one strided move of the package: k groups of q
// runs of runLen bytes, either side dense or strided. Run j of group i
// moves from src[so+i*sGroup+j*sStep:] to dst[do+i*dGroup+j*dStep:].
// Pack and unpack are its one-side-dense cases — the stream side steps
// by runLen, a strided form's tile is k rows of q runs — and in a fused
// layout→layout copy a group is one long run of the side with the
// longer runs, filled from (or spilled over) q short runs of the other. With q == 1 the groups themselves
// are the runs.
//
// The bounds are enforced once per batch, as copyRun enforces them once
// per run: both slices are resliced to the span the batch touches
// before any byte moves, so a violating caller panics instead of
// corrupting memory. Runs of 4 and 8 bytes (float, double), four per
// iteration, and runs of any longer multiple of eight below longRunCopy
// (16 is double complex) then move as words at offsets from the two
// base pointers — no pointer is ever formed outside its slice — because
// at those lengths the per-word slice checks cost more than the moves
// (2.3× on the 8 B → 32 B pair, 1.7× on packing every other double).
// Every other length goes run by run through copyRun. A non-nil sum
// folds the runs moved, in order.
func copyRunGroups(dst, src []byte, do, so, dStep, sStep, dGroup, sGroup, runLen, q, k int64, sum *buf.Checksum) {
	if sum != nil {
		sum.MoveRuns(dst, src, do, so, dStep, sStep, dGroup, sGroup, runLen, q, k)
		return
	}
	if q == 1 {
		q, k = k, 1
		dStep, sStep = dGroup, sGroup
	}
	if k <= 0 || q <= 0 || runLen <= 0 {
		return
	}
	dLo, dHi := buf.RunSpan(do, dStep, dGroup, runLen, q, k)
	sLo, sHi := buf.RunSpan(so, sStep, sGroup, runLen, q, k)
	dst, src = dst[dLo:dHi], src[sLo:sHi]
	do, so = do-dLo, so-sLo
	if runLen >= longRunCopy || (runLen&7 != 0 && runLen != 4) {
		for ; k > 0; k-- {
			o, u := do, so
			for n := q; n > 0; n-- {
				copyRun(dst[o:], src[u:], runLen)
				o += dStep
				u += sStep
			}
			do += dGroup
			so += sGroup
		}
		return
	}
	dp, sp := unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0])
	switch runLen {
	case 8:
		moveWordGroups[[8]byte](dp, sp, do, so, dStep, sStep, dGroup, sGroup, q, k)
	case 4:
		moveWordGroups[[4]byte](dp, sp, do, so, dStep, sStep, dGroup, sGroup, q, k)
	default:
		// 8·m bytes: 16-byte moves, then the odd word.
		for ; k > 0; k-- {
			o, u := do, so
			for n := q; n > 0; n-- {
				i := int64(0)
				for ; i+16 <= runLen; i += 16 {
					*(*[16]byte)(unsafe.Add(dp, o+i)) = *(*[16]byte)(unsafe.Add(sp, u+i))
				}
				if i < runLen {
					*(*[8]byte)(unsafe.Add(dp, o+i)) = *(*[8]byte)(unsafe.Add(sp, u+i))
				}
				o += dStep
				u += sStep
			}
			do += dGroup
			so += sGroup
		}
	}
}

// moveWordGroups is copyRunGroups for runs of one word W: k groups of q
// words, four words per iteration. The caller has checked that every
// offset lies inside the slices dp and sp point into.
func moveWordGroups[W [4]byte | [8]byte](dp, sp unsafe.Pointer, do, so, dStep, sStep, dGroup, sGroup, q, k int64) {
	for ; k > 0; k-- {
		o, u, n := do, so, q
		for ; n >= 4; n -= 4 {
			*(*W)(unsafe.Add(dp, o)) = *(*W)(unsafe.Add(sp, u))
			*(*W)(unsafe.Add(dp, o+dStep)) = *(*W)(unsafe.Add(sp, u+sStep))
			*(*W)(unsafe.Add(dp, o+2*dStep)) = *(*W)(unsafe.Add(sp, u+2*sStep))
			*(*W)(unsafe.Add(dp, o+3*dStep)) = *(*W)(unsafe.Add(sp, u+3*sStep))
			o += 4 * dStep
			u += 4 * sStep
		}
		for ; n > 0; n-- {
			*(*W)(unsafe.Add(dp, o)) = *(*W)(unsafe.Add(sp, u))
			o += dStep
			u += sStep
		}
		do += dGroup
		so += sGroup
	}
}

// copyRunSum is copyRun with the run — a range edge, a table segment —
// folded into sum, if any, while the copy still has it in cache.
func copyRunSum(dst, src []byte, n int64, sum *buf.Checksum) {
	copyRun(dst, src, n)
	if sum != nil && n > 0 {
		sum.Write(src[:n])
	}
}
