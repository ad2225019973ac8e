package datatype

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/layout"
)

// PackSize returns the number of bytes count instances pack to
// (MPI_Pack_size without the implementation slack).
func (t *Type) PackSize(count int) int64 {
	if count <= 0 {
		return 0
	}
	return int64(count) * t.size
}

// checkUse validates a communication/pack use of the type against a
// buffer of bufLen bytes.
func (t *Type) checkUse(count int, bufLen int) error {
	if !t.committed {
		return ErrNotCommitted
	}
	if count < 0 {
		return fmt.Errorf("%w: negative count %d", ErrArgument, count)
	}
	if count == 0 || t.size == 0 {
		return nil
	}
	if t.r.first() < 0 {
		return fmt.Errorf("%w: type touches offset %d before buffer start", ErrBounds, t.r.first())
	}
	last := int64(count-1)*t.Extent() + t.r.last()
	if last > int64(bufLen) {
		return fmt.Errorf("%w: type needs %d bytes, buffer has %d", ErrBounds, last, bufLen)
	}
	return nil
}

// Pack gathers count instances of the type from src into dst,
// returning the bytes written (MPI_Pack of the full message). dst must
// hold at least PackSize(count) bytes. The call executes the cached
// compiled plan directly: in steady state it compiles nothing and
// allocates nothing.
func (t *Type) Pack(src buf.Block, count int, dst buf.Block) (int64, error) {
	need := t.PackSize(count)
	if int64(dst.Len()) < need {
		return 0, fmt.Errorf("%w: need %d bytes, destination has %d", ErrTruncate, need, dst.Len())
	}
	if err := t.checkUse(count, src.Len()); err != nil {
		return 0, err
	}
	return t.plan(count).execute(src, dst, packDirection, nil), nil
}

// Unpack scatters packed bytes from src into count instances of the
// type laid out in dst (MPI_Unpack of the full message). Like Pack, it
// runs the cached compiled plan with no steady-state allocation.
func (t *Type) Unpack(src buf.Block, count int, dst buf.Block) (int64, error) {
	need := t.PackSize(count)
	if int64(src.Len()) < need {
		return 0, fmt.Errorf("%w: need %d packed bytes, source has %d", ErrTruncate, need, src.Len())
	}
	if err := t.checkUse(count, dst.Len()); err != nil {
		return 0, err
	}
	return t.plan(count).execute(dst, src, unpackDirection, nil), nil
}

// Packer streams the packed byte sequence of (count × type) out of a
// user buffer in arbitrary-sized pieces. The MPI-internal chunked
// sends of internal/simnet drain one chunk at a time; packing(v)
// drains everything at once.
//
// A whole-message Pack call from the start of the stream executes the
// compiled plan (see plan.go): a specialized kernel, parallel above
// the threshold. Partial chunks enter the same kernels mid-stream
// (tier 2, compiled-chunked): each kernel positions itself at the
// resume point in O(log segments) and runs its tight copy loop for
// just the requested range. The interpreting cursor remains the true
// fallback (unplanned types, SetChunkedCompiled(false)).
type Packer struct {
	c    cursor
	plan *Plan // bound lazily from the type's plan cache
}

// NewPacker validates the (buffer, count, type) triple and returns a
// streaming packer.
func (t *Type) NewPacker(src buf.Block, count int) (*Packer, error) {
	if err := t.checkUse(count, src.Len()); err != nil {
		return nil, err
	}
	return &Packer{c: newCursor(t, src, count)}, nil
}

// Plan returns the compiled plan the packer executes. The plan comes
// from the type's count-keyed cache, so binding it is a map lookup.
func (p *Packer) Plan() *Plan {
	if p.plan == nil {
		p.plan = p.c.t.plan(int(p.c.count))
	}
	return p.plan
}

// Remaining returns the unpacked bytes left in the stream.
func (p *Packer) Remaining() int64 { return p.c.remaining() }

// Pack fills dst with the next min(dst.Len(), Remaining()) bytes of
// the packed stream and returns how many were produced.
func (p *Packer) Pack(dst buf.Block) (int64, error) { return p.PackSum(dst, nil) }

// PackSum is Pack that also folds the bytes it produces into sum, in
// the same pass where a compiled kernel moves them (nil: plain Pack;
// virtual participants produce no bytes to fold).
func (p *Packer) PackSum(dst buf.Block, sum *buf.Checksum) (int64, error) {
	if p.c.done == 0 && int64(dst.Len()) >= p.c.remaining() {
		n := p.Plan().execute(p.c.user, dst, packDirection, sum)
		p.c.done = n
		return n, nil
	}
	if p.c.t.plans != nil && ChunkedCompiled() {
		want := int64(dst.Len())
		if r := p.c.remaining(); want > r {
			want = r
		}
		if want == 0 {
			return 0, nil
		}
		p.Plan().runChunk(p.c.user, dst, p.c.done, p.c.done+want, packDirection, sum)
		p.c.skip(want)
		return want, nil
	}
	n, err := p.c.transfer(dst, packDirection)
	if sum != nil && !p.c.user.IsVirtual() && !dst.IsVirtual() {
		sum.Write(dst.Bytes()[:n])
	}
	return n, err
}

// RecordChunks is Plan.RecordChunks over the packer's next n stream
// bytes (at most what remains): it stands for chunk-sized Pack calls
// into a virtual destination on the compiled-chunked tier, attributing
// each chunk and leaving the cursor where they would leave it.
func (p *Packer) RecordChunks(n, chunk int64) {
	n = min(n, p.c.remaining())
	p.Plan().RecordChunks(p.c.done, p.c.done+n, chunk, false)
	p.c.skip(n)
}

// Unpacker is the inverse stream: packed bytes in, scattered layout
// out. Like Packer, a whole-message Unpack executes the compiled plan
// and partial chunks run compiled-chunked, with the cursor as the true
// fallback.
type Unpacker struct {
	c    cursor
	plan *Plan
}

// NewUnpacker validates the triple and returns a streaming unpacker
// writing into dst.
func (t *Type) NewUnpacker(dst buf.Block, count int) (*Unpacker, error) {
	if err := t.checkUse(count, dst.Len()); err != nil {
		return nil, err
	}
	return &Unpacker{c: newCursor(t, dst, count)}, nil
}

// Plan returns the compiled plan the unpacker executes, bound from the
// type's plan cache like Packer.Plan.
func (u *Unpacker) Plan() *Plan {
	if u.plan == nil {
		u.plan = u.c.t.plan(int(u.c.count))
	}
	return u.plan
}

// Remaining returns the packed bytes still expected.
func (u *Unpacker) Remaining() int64 { return u.c.remaining() }

// Unpack consumes src and scatters it into the user buffer, returning
// the bytes consumed.
func (u *Unpacker) Unpack(src buf.Block) (int64, error) {
	if u.c.done == 0 && int64(src.Len()) >= u.c.remaining() {
		n := u.Plan().execute(u.c.user, src, unpackDirection, nil)
		u.c.done = n
		return n, nil
	}
	if u.c.t.plans != nil && ChunkedCompiled() {
		want := int64(src.Len())
		if r := u.c.remaining(); want > r {
			want = r
		}
		if want == 0 {
			return 0, nil
		}
		u.Plan().runChunk(u.c.user, src, u.c.done, u.c.done+want, unpackDirection, nil)
		u.c.skip(want)
		return want, nil
	}
	return u.c.transfer(src, unpackDirection)
}

type direction int

const (
	packDirection direction = iota
	unpackDirection
)

// cursor tracks a position in the packed byte stream of (count×type)
// over a user buffer.
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
	recordCursor(want)
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

// typeLayout adapts (count × type) to the layout.Layout interface.
type typeLayout struct {
	t     *Type
	count int64
}

// Layout exposes count instances of the type as a geometric layout for
// the memory model and the harness. Iteration is lazy; nothing is
// materialised.
func (t *Type) Layout(count int) layout.Layout {
	return typeLayout{t: t, count: int64(count)}
}

// Size implements layout.Layout.
func (l typeLayout) Size() int64 { return l.count * l.t.size }

// Extent implements layout.Layout: the highest byte offset one past
// the last touched byte.
func (l typeLayout) Extent() int64 {
	if l.count == 0 || l.t.r.n == 0 {
		return 0
	}
	return (l.count-1)*l.t.Extent() + l.t.r.last()
}

// SegmentCount implements layout.Layout (cross-instance coalescing is
// not counted).
func (l typeLayout) SegmentCount() int { return int(l.count * l.t.r.n) }

// ForEach implements layout.Layout.
func (l typeLayout) ForEach(fn func(layout.Segment) bool) {
	ext := l.t.Extent()
	for i := int64(0); i < l.count; i++ {
		if !l.t.r.forEach(i*ext, fn) {
			return
		}
	}
}

// Name implements layout.Layout.
func (l typeLayout) Name() string { return l.t.kind.String() }

// DescribeFast lets layout.Describe use the closed-form statistics.
func (l typeLayout) DescribeFast() (layout.Stats, bool) {
	return l.t.Stats(int(l.count)), true
}
