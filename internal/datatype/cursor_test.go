package datatype

import (
	"repro/internal/buf"
	"repro/internal/layout"
)

// cursor is the interpreting segment walker: it moves the packed byte
// stream of (count × type) one flattened segment at a time, straight
// off the committed type's raw runs, with no compiled program and no
// normalization. No production path runs it: it is the oracle every
// differential, fuzz, conformance and bench cell checks the compiled
// engines against.
type cursor struct {
	t     *Type
	user  buf.Block
	count int64

	inst   int64 // current instance
	segIdx int64 // segment index within instance
	segOff int64 // bytes consumed within current segment
	done   int64 // total bytes transferred
}

func newCursor(t *Type, user buf.Block, count int) cursor {
	return cursor{t: t, user: user, count: int64(count)}
}

func (c *cursor) total() int64     { return c.count * c.t.size }
func (c *cursor) remaining() int64 { return c.total() - c.done }

// transfer moves up to other.Len() bytes between the packed stream
// (other) and the user buffer, in the given direction.
func (c *cursor) transfer(other buf.Block, dir direction) (int64, error) {
	want := int64(other.Len())
	if r := c.remaining(); want > r {
		want = r
	}
	if want == 0 {
		return 0, nil
	}
	// Virtual fast path: no byte movement, just cursor arithmetic.
	if c.user.IsVirtual() || other.IsVirtual() {
		c.skip(want)
		return want, nil
	}
	var moved int64
	ext := c.t.Extent()
	for moved < want {
		seg := c.t.r.seg(c.segIdx)
		segBase := c.inst*ext + seg.Off
		n := seg.Len - c.segOff
		if n > want-moved {
			n = want - moved
		}
		userOff := segBase + c.segOff
		switch dir {
		case packDirection:
			buf.CopyAt(other, int(moved), c.user, int(userOff), int(n))
		case unpackDirection:
			buf.CopyAt(c.user, int(userOff), other, int(moved), int(n))
		}
		moved += n
		c.advance(n)
	}
	return moved, nil
}

// advance moves the cursor n bytes forward within the current segment,
// rolling over segments and instances.
func (c *cursor) advance(n int64) {
	c.segOff += n
	c.done += n
	for c.segOff >= c.t.r.seg(c.segIdx).Len && c.done < c.total() {
		c.segOff = 0
		c.segIdx++
		if c.segIdx >= c.t.r.n {
			c.segIdx = 0
			c.inst++
		}
	}
}

// skip advances the cursor by n stream bytes without touching data.
func (c *cursor) skip(n int64) {
	if c.t.size == 0 {
		return
	}
	pos := c.done + n
	c.done = pos
	if pos >= c.total() {
		return
	}
	c.inst = pos / c.t.size
	rem := pos % c.t.size
	if c.t.r.regular {
		c.segIdx = rem / c.t.r.runLen
		c.segOff = rem % c.t.r.runLen
		return
	}
	c.segIdx = 0
	for rem >= c.t.r.segs[c.segIdx].Len {
		rem -= c.t.r.segs[c.segIdx].Len
		c.segIdx++
	}
	c.segOff = rem
}

// seg returns the j-th segment (0-based) of the instance.
func (r runs) seg(j int64) layout.Segment {
	if r.regular {
		return layout.Segment{Off: r.start + j*(r.runLen+r.gap), Len: r.runLen}
	}
	return r.segs[j]
}
