package datatype

import (
	"fmt"

	"repro/internal/buf"
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
// (compiled-chunked): each kernel positions itself at the resume point
// in O(log segments) and runs its tight copy loop for just the
// requested range, so the packer itself holds only a stream position.
type Packer struct{ stream }

// NewPacker validates the (buffer, count, type) triple and returns a
// streaming packer.
func (t *Type) NewPacker(src buf.Block, count int) (*Packer, error) {
	if err := t.checkUse(count, src.Len()); err != nil {
		return nil, err
	}
	return &Packer{stream{t: t, user: src, count: int64(count)}}, nil
}

// Pack fills dst with the next min(dst.Len(), Remaining()) bytes of
// the packed stream and returns how many were produced.
func (p *Packer) Pack(dst buf.Block) (int64, error) { return p.PackSum(dst, nil) }

// PackSum is Pack that also folds the bytes it produces into sum, in
// the same pass where a compiled kernel moves them (nil: plain Pack;
// virtual participants produce no bytes to fold).
func (p *Packer) PackSum(dst buf.Block, sum *buf.Checksum) (int64, error) {
	return p.move(dst, packDirection, sum), nil
}

// RecordChunks is Plan.RecordChunks over the packer's next n stream
// bytes (at most what remains): it stands for chunk-sized Pack calls
// into a virtual destination, attributing each chunk and leaving the
// stream position where they would leave it.
func (p *Packer) RecordChunks(n, chunk int64) {
	n = min(n, p.Remaining())
	p.Plan().RecordChunks(p.done, p.done+n, chunk, false)
	p.done += n
}

// Unpacker is the inverse stream: packed bytes in, scattered layout
// out. Like Packer, a whole-message Unpack executes the compiled plan
// and partial chunks run compiled-chunked.
type Unpacker struct{ stream }

// NewUnpacker validates the triple and returns a streaming unpacker
// writing into dst.
func (t *Type) NewUnpacker(dst buf.Block, count int) (*Unpacker, error) {
	if err := t.checkUse(count, dst.Len()); err != nil {
		return nil, err
	}
	return &Unpacker{stream{t: t, user: dst, count: int64(count)}}, nil
}

// Unpack consumes src and scatters it into the user buffer, returning
// the bytes consumed.
func (u *Unpacker) Unpack(src buf.Block) (int64, error) {
	return u.move(src, unpackDirection, nil), nil
}

type direction int

const (
	packDirection direction = iota
	unpackDirection
)

// stream is a position in the packed byte stream of (count × type)
// over a user buffer: the state Packer and Unpacker share.
type stream struct {
	t     *Type
	user  buf.Block
	count int64
	done  int64 // stream bytes already transferred
	plan  *Plan // bound lazily from the type's plan cache
}

// Plan returns the compiled plan the stream executes. The plan comes
// from the type's count-keyed cache, so binding it is a map lookup.
func (s *stream) Plan() *Plan {
	if s.plan == nil {
		s.plan = s.t.plan(int(s.count))
	}
	return s.plan
}

// Remaining returns the stream bytes not yet transferred.
func (s *stream) Remaining() int64 { return s.count*s.t.size - s.done }

// move transfers the next min(other.Len(), Remaining()) stream bytes
// between the user buffer and other (the packed side) in direction
// dir: the whole message from the start of the stream on the plan's
// executor, anything else as one compiled chunk.
func (s *stream) move(other buf.Block, dir direction, sum *buf.Checksum) int64 {
	want := min(int64(other.Len()), s.Remaining())
	if s.done == 0 && want == s.Remaining() {
		s.done = s.Plan().execute(s.user, other, dir, sum)
		return s.done
	}
	if want > 0 {
		s.Plan().runChunk(s.user, other, s.done, s.done+want, dir, sum)
		s.done += want
	}
	return want
}
