package datatype

import (
	"fmt"

	"repro/internal/buf"
)

// This file holds what is particular to the canonical strided-block
// programs produced by the normalizer (normalize.go): runBlock, which
// cuts a packed range of a 2-D/3-D block form into whole-row tiles, row
// remainders and edge runs and hands them to the package's one strided
// move (copyRunGroups, copykernel.go), and KernelClass, the (element
// size × stride class × dimensionality) label a compiled program is
// described by in CanonicalString and the E19 study. The label selects
// nothing: every class runs the same kernel.

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
	// StrideRegular is closed-form strided addressing (the stride and
	// canonical block kernels).
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

// runBlock executes a canonical strided-block program over the packed
// byte range [lo, hi); soff is the packed position of the stream
// block's byte 0. Like every kernel it can start mid-stream in O(1):
// the flat run index is a division, and its decomposition into
// (plane, row, col) is two more. Whole rows move as one copyRunGroups
// tile (a group is a row), row remainders as one group, split-point
// partial runs through copyRun.
func (p *Plan) runBlock(user, stream buf.Block, lo, hi, soff int64, dir direction, sum *buf.Checksum) {
	ub, sb := user.Bytes(), stream.Bytes()
	pr := p.prog
	cf := &pr.canon
	runLen := cf.runLen
	rowRuns := cf.cnt[0]
	rowBytes := rowRuns * runLen
	inst := lo / pr.instSize
	rem := lo - inst*pr.instSize
	r := rem / runLen
	runOff := rem - r*runLen
	row := r / rowRuns
	col := r - row*rowRuns
	var plane int64
	rows := cf.cnt[1]
	planes := int64(1)
	if cf.dims == 3 {
		plane = row / rows
		row -= plane * rows
		planes = cf.cnt[2]
	}
	pos := lo
	for pos < hi {
		base := inst*pr.ext + cf.start + plane*cf.str[2] + row*cf.str[1] + col*cf.str[0]
		switch {
		case runOff != 0:
			// Leading partial run (a split point landed mid-run).
			n := runLen - runOff
			if n > hi-pos {
				n = hi - pos
			}
			moveRun(sb, ub, pos-soff, base+runOff, n, dir, sum)
			pos += n
			runOff = 0
			col++
		case col == 0 && hi-pos >= rowBytes:
			// Whole-row tile: to the plane edge or the last whole row.
			nRows := rows - row
			if m := (hi - pos) / rowBytes; m < nRows {
				nRows = m
			}
			moveRuns(sb, ub, pos-soff, base, cf.str[0], cf.str[1], runLen, rowRuns, nRows, dir, sum)
			pos += nRows * rowBytes
			row += nRows
		default:
			// Row remainder: whole runs to the row edge or range end.
			nRuns := rowRuns - col
			if m := (hi - pos) / runLen; m < nRuns {
				nRuns = m
			}
			if nRuns > 0 {
				moveRuns(sb, ub, pos-soff, base, cf.str[0], 0, runLen, nRuns, 1, dir, sum)
				pos += nRuns * runLen
				col += nRuns
			}
			if pos >= hi {
				return
			}
			if col < rowRuns {
				// Trailing partial run (the range ends mid-run).
				moveRun(sb, ub, pos-soff, base+nRuns*cf.str[0], hi-pos, dir, sum)
				return
			}
		}
		if col >= rowRuns {
			col = 0
			row++
		}
		if row >= rows {
			row = 0
			plane++
		}
		if plane >= planes {
			plane = 0
			inst++
		}
	}
}
