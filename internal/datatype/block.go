package datatype

import "repro/internal/buf"

// This file holds the strided-block form every closed-form program
// executes, and the one range executor over it. A form is runs of one
// length nested in up to four stride levels: a regular run/gap program
// is its 1-d form, a collapsed gather table (normalize.go) its 2-d or
// 3-d one, a contiguous message the zero-level form of one run, and a
// bound plan adds count as one more outer level. One seek (a packed
// offset to level coordinates) and one odometer step serve the range
// executor (runForm), the segment iterator, the checksum walk and the
// fused pair kernel alike.

// form is the strided-block descriptor: runs of runLen bytes in dims
// nested levels, innermost first; level l repeats what it holds cnt[l]
// times, str[l] bytes apart. Levels at and past dims have count 1, so
// the run at coordinates c starts at start + Σ c[l]·str[l].
type form struct {
	runLen, start int64
	dims          int
	cnt, str      [4]int64
}

// newForm returns the zero-level form: one run at start.
func newForm(runLen, start int64) form {
	return form{runLen: runLen, start: start, cnt: [4]int64{1, 1, 1, 1}}
}

// level adds an outer level of cnt repetitions str bytes apart; a level
// of one repetition adds nothing.
func (f *form) level(cnt, str int64) {
	if cnt > 1 {
		f.cnt[f.dims], f.str[f.dims] = cnt, str
		f.dims++
	}
}

// head is a position in a form: the level coordinates of a run, the
// user offset of its first byte, and the bytes of it already consumed.
type head struct {
	f   *form
	c   [4]int64
	o   int64
	off int64
}

// seek returns the head at packed offset pos, in closed form.
func (f *form) seek(pos int64) head {
	r := pos / f.runLen
	h := head{f: f, o: f.start, off: pos - r*f.runLen}
	for l := 0; l < 3; l++ {
		q := r / f.cnt[l]
		h.c[l] = r - q*f.cnt[l]
		h.o += h.c[l] * f.str[l]
		r = q
	}
	h.c[3] = r
	h.o += r * f.str[3]
	return h
}

// step moves a head at a run start k repetitions on at level l, k at
// most what is left of the level; a level that fills carries into the
// one outside it.
func (h *head) step(l int, k int64) {
	f := h.f
	h.c[l] += k
	h.o += k * f.str[l]
	for ; l < 3 && h.c[l] == f.cnt[l]; l++ {
		h.c[l] = 0
		h.c[l+1]++
		h.o += f.str[l+1] - f.cnt[l]*f.str[l]
	}
}

// advance consumes n bytes, n at most what is left of the current run.
func (h *head) advance(n int64) {
	if h.off += n; h.off == h.f.runLen {
		h.off = 0
		h.step(0, 1)
	}
}

// runForm executes the plan's form over the packed byte range [lo, hi);
// soff is the packed position of the stream block's byte 0. One seek
// finds the first run; then whole rows (level 0 complete) move as one
// copyRunGroups tile up to the edge of level 1, the runs left of a row
// as one group, and the partial runs a range edge cuts through copyRun.
func (p *Plan) runForm(user, stream buf.Block, lo, hi, soff int64, dir direction, sum *buf.Checksum) {
	ub, sb := user.Bytes(), stream.Bytes()
	f := &p.form
	rowBytes := f.cnt[0] * f.runLen
	h := f.seek(lo)
	for pos := lo; pos < hi; {
		switch n := hi - pos; {
		case h.off != 0 || n < f.runLen:
			// A partial run: the range starts or ends inside it.
			n = min(n, f.runLen-h.off)
			moveRun(sb, ub, pos-soff, h.o+h.off, n, dir, sum)
			pos += n
			h.advance(n)
		case h.c[0] == 0 && n >= rowBytes:
			k := min(f.cnt[1]-h.c[1], n/rowBytes)
			moveRuns(sb, ub, pos-soff, h.o, f.str[0], f.str[1], f.runLen, f.cnt[0], k, dir, sum)
			pos += k * rowBytes
			h.step(1, k)
		default:
			k := min(f.cnt[0]-h.c[0], n/f.runLen)
			moveRuns(sb, ub, pos-soff, h.o, f.str[0], 0, f.runLen, k, 1, dir, sum)
			pos += k * f.runLen
			h.step(0, k)
		}
	}
}
