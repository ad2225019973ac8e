package datatype

import "repro/internal/layout"

// This file implements the Commit-time datatype normalizer (the TEMPI
// direction): equivalent derived-type trees — hvector-of-vector,
// subarray-of-contiguous-rows, strided struct tilings — flatten to
// gather tables whose offsets are really a small closed-form 2-D/3-D
// strided-block pattern. The normalizer canonicalises a freshly
// compiled program by merging abutting table segments, hoisting the
// uniform element size where one exists, and collapsing recognised
// block patterns into a strided form (block.go), which then runs on the
// same executor, iterator and fused pair kernel as a regular run/gap
// program instead of on the table walk. Every execution tier —
// Plan.Pack/Unpack, the chunked PackRange/UnpackRange,
// SegIter/FusedCopy, PackChunks/StageChunks and ChecksumRange — runs the
// normalized program.
//
// The pass is semantics-preserving by construction: a candidate form
// is accepted only after every table offset has been reproduced from
// the closed form, so the canonical program enumerates exactly the
// (userOff, packedOff, len) runs of the raw table, in the same packed
// order.

// GatherTwin returns a committed Hindexed type over ty's flattened
// runs (one instance) with the last run moved 8 bytes further out: the
// same size and the same runs, but — for three or more runs — a table
// no closed form matches, so it compiles to the KernelGather walk
// whatever ty normalizes to. Studies and benchmarks send it as the
// un-normalized stand-in for ty.
func GatherTwin(ty *Type) (*Type, error) {
	var lens []int
	var displs []int64
	ty.r.forEach(0, func(s layout.Segment) bool {
		lens = append(lens, int(s.Len))
		displs = append(displs, s.Off)
		return true
	})
	if n := len(displs); n > 0 {
		displs[n-1] += 8
	}
	twin, err := Hindexed(lens, displs, Byte)
	if err != nil {
		return nil, err
	}
	return twin, twin.Commit()
}

// normalizeProg canonicalises a freshly compiled program in place.
// Contig and stride programs are already canonical (one run, or a
// single closed-form stride level); gather tables are merged, matched
// against the 2-D/3-D block forms, and collapsed on a hit — or at
// least get their uniform element size hoisted so the table walk can
// enter by division instead of binary search.
func normalizeProg(p *planProg) {
	if p.kernel != KernelGather || len(p.segs) < 2 {
		return
	}
	if m := mergeAbutting(p); m > 0 {
		planCounters.runsMerged.Add(m)
	}
	if cf, ok := detectCanon(p.segs); ok {
		p.form = cf
		p.merged = int64(len(p.segs)) - int64(cf.dims)
		p.kernel = KernelBlock
		p.segs = nil
		planCounters.canonHits.Add(1)
		planCounters.runsMerged.Add(p.merged)
		return
	}
	if u := uniformSegLen(p.segs); u > 0 {
		// Contiguous-run gather: the table stays, but with a single
		// hoisted element size the entry point is a division and the
		// walk needs no per-segment length fetch.
		p.uniform = u
	}
	planCounters.canonMisses.Add(1)
}

// mergeAbutting coalesces table segments that abut in both the user
// buffer and the packed stream, returning how many were folded away.
// The flattener already coalesces adjacent runs, so this is a
// defensive pass that keeps the invariant local to the normalizer.
func mergeAbutting(p *planProg) int64 {
	segs := p.segs
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if s.off == last.off+last.length {
			last.length += s.length
			continue
		}
		out = append(out, s)
	}
	merged := int64(len(segs) - len(out))
	if merged > 0 {
		p.segs = out
	}
	return merged
}

// uniformSegLen returns the common segment length of the table, or 0
// when lengths differ.
func uniformSegLen(segs []planSeg) int64 {
	u := segs[0].length
	for _, s := range segs[1:] {
		if s.length != u {
			return 0
		}
	}
	return u
}

// detectCanon matches a gather table against the canonical 2-D/3-D
// strided-block forms. The table is sorted by offset with uniform
// packed order, so the match is: uniform lengths, an innermost level
// of equal offset deltas, and outer levels whose period divides the
// table — then every offset is verified against the closed form before
// the match is accepted, which is what makes the collapse
// semantics-preserving rather than heuristic.
func detectCanon(segs []planSeg) (form, bool) {
	n := int64(len(segs))
	if n < 4 {
		return form{}, false
	}
	runLen := uniformSegLen(segs)
	if runLen == 0 {
		return form{}, false
	}
	d0 := segs[1].off - segs[0].off
	c0 := int64(1)
	for c0 < n && segs[c0].off-segs[c0-1].off == d0 {
		c0++
	}
	if c0 == n {
		// A single uniform level is the regular run/gap form; the
		// flattener's promote pass keeps those on KernelStride, so a
		// fully uniform table here would be redundant, not canonical.
		return form{}, false
	}
	if c0 < 2 || n%c0 != 0 {
		return form{}, false
	}
	rows := n / c0
	d1 := segs[c0].off - segs[0].off
	cf := newForm(runLen, segs[0].off)
	cf.level(c0, d0)
	cf.level(rows, d1)
	if verifyCanon(segs, &cf) {
		return cf, true
	}
	// 2-D failed: look for a third level (row groups of equal pitch
	// repeated at a plane pitch).
	c1 := int64(1)
	for c1 < rows && segs[c1*c0].off-segs[(c1-1)*c0].off == d1 {
		c1++
	}
	if c1 < 2 || c1 == rows || rows%c1 != 0 {
		return form{}, false
	}
	cf = newForm(runLen, segs[0].off)
	cf.level(c0, d0)
	cf.level(c1, d1)
	cf.level(rows/c1, segs[c1*c0].off-segs[0].off)
	if verifyCanon(segs, &cf) {
		return cf, true
	}
	return form{}, false
}

// verifyCanon checks that the closed form reproduces every table
// offset.
func verifyCanon(segs []planSeg, cf *form) bool {
	for j := range segs {
		if segs[j].off != cf.seek(int64(j)*cf.runLen).o {
			return false
		}
	}
	return true
}
