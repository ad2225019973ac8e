package datatype

import "unsafe"

// This file implements the word-wide copy kernel behind the compiled
// plan executors and the fused transfer engine. The runs a
// non-contiguous layout decomposes into are mostly short — the paper's
// canonical case is an 8-byte double every 16 bytes — and at those
// lengths the per-call dispatch of the runtime memmove costs more than
// the move itself. copyRun moves whole machine words instead of bytes:
// an aligned fast path issues true 8-byte (or 4-byte) loads and
// stores, a mutually-misaligned path falls back to alignment-free
// [8]byte array moves (which the compiler lowers to wide instructions
// on the targets we care about and to safe byte sequences elsewhere),
// and a byte tail finishes the 1–7 remaining bytes.
//
// Contract: dst and src must not overlap (the copy is forward-only and
// word-granular); callers owning potentially-aliased buffers must use
// the staged path. Bounds: len(dst) >= n and len(src) >= n — enforced
// by the initial reslice, so a violating caller panics instead of
// corrupting memory.

// longRunCopy is the run length beyond which the runtime memmove —
// with its vectorised bulk loops — wins over the word loop and the
// call overhead is amortised anyway.
const longRunCopy = 256

// copyRun copies n bytes from src to dst, word-wide. See the file
// comment for the overlap and bounds contract.
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

// copyRunGroups is the batch kernel of a fused layout→layout copy:
// k groups of q runs of runLen bytes, both sides strided. Run j of
// group i moves from src[so+i*sGroup+j*sStep:] to
// dst[do+i*dGroup+j*dStep:]. A group is one long run of the side with
// the longer runs, filled from (or spilled over) q short runs of the
// other; with q == 1 the groups themselves are the runs. gatherRuns and
// scatterRuns are its one-side-dense cases.
//
// 8-byte runs, the paper's doubles, move as words, four per iteration,
// through pointers: the per-word slice checks cost more than the moves
// (2.3× on the 8 B → 32 B pair). As in copyRun the bounds are enforced
// once — strides within a batch are never negative, so the reslice to
// the batch's last byte covers every access and a violating caller
// panics instead of corrupting memory.
func copyRunGroups(dst, src []byte, do, so, dStep, sStep, dGroup, sGroup, runLen, q, k int64) {
	if q == 1 {
		q, k = k, 1
		dStep, sStep = dGroup, sGroup
	}
	if k <= 0 || q <= 0 {
		return
	}
	if runLen != 8 || dStep < 0 || sStep < 0 || dGroup < 0 || sGroup < 0 {
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
	dst = dst[do : do+(k-1)*dGroup+(q-1)*dStep+8]
	src = src[so : so+(k-1)*sGroup+(q-1)*sStep+8]
	// Offsets from the two base pointers, so no pointer is ever formed
	// outside its slice.
	dp, sp := unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0])
	do, so = 0, 0
	for ; k > 0; k-- {
		o, u, n := do, so, q
		for ; n >= 4; n -= 4 {
			*(*[8]byte)(unsafe.Add(dp, o)) = *(*[8]byte)(unsafe.Add(sp, u))
			*(*[8]byte)(unsafe.Add(dp, o+dStep)) = *(*[8]byte)(unsafe.Add(sp, u+sStep))
			*(*[8]byte)(unsafe.Add(dp, o+2*dStep)) = *(*[8]byte)(unsafe.Add(sp, u+2*sStep))
			*(*[8]byte)(unsafe.Add(dp, o+3*dStep)) = *(*[8]byte)(unsafe.Add(sp, u+3*sStep))
			o += 4 * dStep
			u += 4 * sStep
		}
		for ; n > 0; n-- {
			*(*[8]byte)(unsafe.Add(dp, o)) = *(*[8]byte)(unsafe.Add(sp, u))
			o += dStep
			u += sStep
		}
		do += dGroup
		so += sGroup
	}
}
