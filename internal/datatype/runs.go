package datatype

import (
	"cmp"
	"slices"

	"repro/internal/layout"
)

// runs is the canonical flattened form of one type instance.
//
// Regular form: n runs of runLen bytes; run j starts at
// start + j*(runLen+gap). Random access is O(1), so pack kernels and
// chunked internal sends never materialise the segment list — vital
// for the 10⁸-element vector types at the top of the paper's sweeps.
//
// Irregular form (regular == false): segs holds one instance's sorted,
// coalesced segments. Its size is bounded by the user's constructor
// arrays (indexed/struct types), so materialisation is safe.
type runs struct {
	regular bool
	start   int64
	runLen  int64
	gap     int64
	n       int64

	segs []layout.Segment
}

// emptyRuns is the canonical zero-payload form.
func emptyRuns() runs { return runs{regular: true} }

// regularRuns builds a regular pattern, degenerating to a single run
// when the gap is zero or n <= 1.
func regularRuns(start, runLen, gap, n int64) runs {
	if n <= 0 || runLen <= 0 {
		return emptyRuns()
	}
	if gap == 0 && n > 1 {
		return runs{regular: true, start: start, runLen: runLen * n, gap: 0, n: 1}
	}
	if n == 1 {
		gap = 0
	}
	return runs{regular: true, start: start, runLen: runLen, gap: gap, n: n}
}

// irregularRuns sorts, validates and coalesces an explicit segment
// list, then promotes it back to regular form if a uniform pattern
// emerges.
func irregularRuns(segs []layout.Segment) (runs, error) {
	kept := segs[:0]
	for _, s := range segs {
		if s.Len > 0 {
			kept = append(kept, s)
		}
	}
	segs = kept
	if len(segs) == 0 {
		return emptyRuns(), nil
	}
	slices.SortFunc(segs, func(a, b layout.Segment) int { return cmp.Compare(a.Off, b.Off) })
	// Coalesce adjacent runs; reject overlaps.
	out := segs[:1]
	for _, s := range segs[1:] {
		lastIdx := len(out) - 1
		if s.Off < out[lastIdx].End() {
			return runs{}, ErrOverlap
		}
		if s.Off == out[lastIdx].End() {
			out[lastIdx].Len += s.Len
			continue
		}
		out = append(out, s)
	}
	if r, ok := promote(out); ok {
		return r, nil
	}
	return runs{segs: out, n: int64(len(out))}, nil
}

// promote detects a uniform run/gap pattern in a coalesced list.
func promote(segs []layout.Segment) (runs, bool) {
	if len(segs) == 0 {
		return emptyRuns(), true
	}
	if len(segs) == 1 {
		return runs{regular: true, start: segs[0].Off, runLen: segs[0].Len, n: 1}, true
	}
	runLen := segs[0].Len
	gap := segs[1].Off - segs[0].End()
	for i, s := range segs {
		if s.Len != runLen {
			return runs{}, false
		}
		if i > 0 && s.Off-segs[i-1].End() != gap {
			return runs{}, false
		}
	}
	return runs{regular: true, start: segs[0].Off, runLen: runLen, gap: gap, n: int64(len(segs))}, true
}

// first returns the offset of the first byte touched.
func (r runs) first() int64 {
	if r.n == 0 {
		return 0
	}
	if r.regular {
		return r.start
	}
	return r.segs[0].Off
}

// last returns one past the last byte touched.
func (r runs) last() int64 {
	if r.n == 0 {
		return 0
	}
	if r.regular {
		return r.start + (r.n-1)*(r.runLen+r.gap) + r.runLen
	}
	return r.segs[len(r.segs)-1].End()
}

// forEach iterates the instance's segments shifted by base.
func (r runs) forEach(base int64, fn func(layout.Segment) bool) bool {
	if r.regular {
		off := base + r.start
		step := r.runLen + r.gap
		for j := int64(0); j < r.n; j++ {
			if !fn(layout.Segment{Off: off, Len: r.runLen}) {
				return false
			}
			off += step
		}
		return true
	}
	for _, s := range r.segs {
		if !fn(layout.Segment{Off: base + s.Off, Len: s.Len}) {
			return false
		}
	}
	return true
}

// shifted returns a copy of the runs displaced by delta bytes.
func (r runs) shifted(delta int64) runs {
	if delta == 0 || r.n == 0 {
		return r
	}
	if r.regular {
		r.start += delta
		return r
	}
	segs := make([]layout.Segment, len(r.segs))
	for i, s := range r.segs {
		segs[i] = layout.Segment{Off: s.Off + delta, Len: s.Len}
	}
	r.segs = segs
	return r
}

// replicate lays count copies of r at offsets 0, extent, 2*extent …
// and re-canonicalises. Used by constructors that repeat a child type
// (contiguous, vector blocks over a non-basic child, …).
//
// Fast path: if the child is regular and repetition continues the
// pattern (or butts the copies against each other), the result stays
// regular with no materialisation.
func replicate(r runs, extent int64, count int64) (runs, error) {
	if count <= 0 || r.n == 0 {
		return emptyRuns(), nil
	}
	if count == 1 {
		return r, nil
	}
	if r.regular {
		step := r.runLen + r.gap
		// Pattern continues when the inter-instance spacing matches the
		// intra-instance step: first run of copy i+1 starts extent after
		// first run of copy i, and that equals n*step.
		if extent == r.n*step {
			return regularRuns(r.start, r.runLen, r.gap, r.n*count), nil
		}
		// Single-run child whose copies touch exactly (extent == runLen).
		if r.n == 1 && extent == r.runLen {
			return regularRuns(r.start, r.runLen*count, 0, 1), nil
		}
		// Single-run child spaced out: a new regular pattern.
		if r.n == 1 {
			if extent < r.runLen {
				return runs{}, ErrOverlap
			}
			return regularRuns(r.start, r.runLen, extent-r.runLen, count), nil
		}
	}
	// General (bounded) case: materialise count copies.
	total := r.n * count
	if total > maxMaterialize {
		return runs{}, errTooManySegments(total)
	}
	segs := make([]layout.Segment, 0, total)
	for i := int64(0); i < count; i++ {
		base := i * extent
		r.forEach(base, func(s layout.Segment) bool {
			segs = append(segs, s)
			return true
		})
	}
	return irregularRuns(segs)
}

// maxMaterialize bounds explicit segment lists; regular patterns have
// no such limit. 16M segments ≈ 384 MB of Segment values, refuse
// beyond that rather than dying on OOM.
const maxMaterialize = int64(16 << 20)

func errTooManySegments(n int64) error {
	return &TooManySegmentsError{N: n}
}

// TooManySegmentsError reports a constructor whose irregular flattened
// form would exceed the materialisation bound.
type TooManySegmentsError struct{ N int64 }

// Error implements error.
func (e *TooManySegmentsError) Error() string {
	return "datatype: irregular type would flatten to too many segments"
}
