package datatype

import "fmt"

// What the normalizer made of a committed type, as the tests read it:
// no production path branches on these, so they live beside the tests
// that assert on them.

// runs returns the form's run count.
func (f *form) runs() int64 { return f.cnt[0] * f.cnt[1] * f.cnt[2] * f.cnt[3] }

// Canon reports whether the plan executes a canonical strided-block
// program, along with the raw per-instance run count the normalizer
// collapsed and the canonical form's dimensionality.
func (p *Plan) Canon() (ok bool, rawRuns int64, dims int) {
	pr := p.prog
	if pr.kernel != KernelBlock {
		return false, 0, 0
	}
	return true, pr.form.runs(), pr.form.dims
}

// KernelClass returns the descriptive class of the program the plan
// executes: its (element size × stride class × dimensionality) label.
func (p *Plan) KernelClass() KernelClass {
	if p.kernel == KernelContig {
		return KernelClass{Elem: ElemAny, Stride: StrideNone, Dims: 1}
	}
	return p.prog.class
}

// CanonicalString renders the committed type's compiled program after
// normalization — the kernel, its geometry, its class label, and (for
// collapsed tables) the run-count reduction — so a failing test can say
// what a nested derived type actually executes.
func (t *Type) CanonicalString() string {
	pr := t.prog()
	if t.IsContiguous() {
		// Dense repetition executes as one run regardless of the
		// instance program's nominal kernel.
		return fmt.Sprintf("canon{contig %dB}", pr.instSize)
	}
	switch pr.kernel {
	case KernelContig:
		return fmt.Sprintf("canon{contig %dB}", pr.instSize)
	case KernelStride:
		return fmt.Sprintf("canon{stride %d×%dB step=%d class=%v}",
			t.r.n, t.r.runLen, t.r.runLen+t.r.gap, pr.class)
	case KernelBlock:
		cf := &pr.form
		s := fmt.Sprintf("canon{block%dd %d×%dB str=%d", cf.dims, cf.cnt[0], cf.runLen, cf.str[0])
		for l := 1; l < cf.dims; l++ {
			s += fmt.Sprintf(" × %d str=%d", cf.cnt[l], cf.str[l])
		}
		return s + fmt.Sprintf(" class=%v runs %d→%d}", pr.class, cf.runs(), cf.dims)
	default: // KernelGather
		if pr.uniform > 0 {
			return fmt.Sprintf("canon{gather segs=%d uniform=%dB class=%v}",
				len(pr.segs), pr.uniform, pr.class)
		}
		return fmt.Sprintf("canon{gather segs=%d class=%v}", len(pr.segs), pr.class)
	}
}
