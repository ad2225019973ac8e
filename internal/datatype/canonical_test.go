package datatype

import "fmt"

// What the normalizer made of a committed type, as the tests read it:
// no production path branches on these, so they live beside the tests
// that assert on them. KernelClass is the (element size × stride class
// × dimensionality) label of a compiled program, derived from the
// program itself; it selects no code.

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
	return p.prog.class()
}

// class derives the descriptive label of a compiled program from its
// kernel and geometry.
func (pr *planProg) class() KernelClass {
	switch pr.kernel {
	case KernelContig:
		return KernelClass{Elem: ElemAny, Stride: StrideNone, Dims: 1}
	case KernelStride:
		return KernelClass{Elem: elemClassOf(pr.form.runLen), Stride: StrideRegular, Dims: 1}
	case KernelBlock:
		return KernelClass{Elem: elemClassOf(pr.form.runLen), Stride: StrideRegular, Dims: pr.form.dims}
	default: // KernelGather: a uniform table is labelled by its element size
		return KernelClass{Elem: elemClassOf(pr.uniform), Stride: StrideIrregular, Dims: 1}
	}
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
			t.r.n, t.r.runLen, t.r.runLen+t.r.gap, pr.class())
	case KernelBlock:
		cf := &pr.form
		s := fmt.Sprintf("canon{block%dd %d×%dB str=%d", cf.dims, cf.cnt[0], cf.runLen, cf.str[0])
		for l := 1; l < cf.dims; l++ {
			s += fmt.Sprintf(" × %d str=%d", cf.cnt[l], cf.str[l])
		}
		return s + fmt.Sprintf(" class=%v runs %d→%d}", pr.class(), cf.runs(), cf.dims)
	default: // KernelGather
		if pr.uniform > 0 {
			return fmt.Sprintf("canon{gather segs=%d uniform=%dB class=%v}",
				len(pr.segs), pr.uniform, pr.class())
		}
		return fmt.Sprintf("canon{gather segs=%d class=%v}", len(pr.segs), pr.class())
	}
}

// ElemClass buckets a canonical run length into the element sizes the
// paper's workloads use (float, double, double complex).
type ElemClass uint8

// The element classes.
const (
	ElemAny ElemClass = iota
	Elem4
	Elem8
	Elem16
)

var elemClassNames = map[ElemClass]string{
	ElemAny: "any", Elem4: "elem4", Elem8: "elem8", Elem16: "elem16",
}

// String returns the element-class name.
func (e ElemClass) String() string {
	if s, ok := elemClassNames[e]; ok {
		return s
	}
	return fmt.Sprintf("ElemClass(%d)", int(e))
}

// elemClassOf buckets a run length.
func elemClassOf(runLen int64) ElemClass {
	switch runLen {
	case 4:
		return Elem4
	case 8:
		return Elem8
	case 16:
		return Elem16
	default:
		return ElemAny
	}
}

// StrideClass classifies how a program addresses the user buffer.
type StrideClass uint8

// The stride classes.
const (
	// StrideNone is a contiguous program: one dense run.
	StrideNone StrideClass = iota
	// StrideRegular is closed-form strided addressing: a strided form.
	StrideRegular
	// StrideIrregular is a gather table walk.
	StrideIrregular
)

var strideClassNames = map[StrideClass]string{
	StrideNone: "contig", StrideRegular: "regular", StrideIrregular: "irregular",
}

// String returns the stride-class name.
func (s StrideClass) String() string {
	if n, ok := strideClassNames[s]; ok {
		return n
	}
	return fmt.Sprintf("StrideClass(%d)", int(s))
}

// KernelClass describes the shape of a compiled program: the element
// class of its runs, how it addresses the user buffer, and how many
// nested stride levels it has.
type KernelClass struct {
	Elem   ElemClass
	Stride StrideClass
	Dims   int
}

// String renders the class as elem/stride/dims.
func (c KernelClass) String() string {
	return fmt.Sprintf("%v/%v/%dd", c.Elem, c.Stride, c.Dims)
}
