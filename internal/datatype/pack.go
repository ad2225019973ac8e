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

type direction int

const (
	packDirection direction = iota
	unpackDirection
)
