package mpi

import (
	"fmt"
	"sync"

	"repro/internal/buf"
	"repro/internal/vclock"
)

// BsendOverheadBytes is the per-message bookkeeping space MPI reserves
// inside an attached buffer, the analogue of MPI_BSEND_OVERHEAD.
const BsendOverheadBytes = 64

// bsendPool manages the buffer attached with BufferAttach. It is a
// simple region allocator: reservations carve the buffer front to
// back; a reservation is released when the receiver consumes the
// message, and the pool compacts free space lazily. This mirrors the
// ring-like behaviour of real Bsend implementations closely enough for
// the exhaustion semantics the tests exercise.
type bsendPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	backing buf.Block
	inUse   int64
	pending int
	// lastRelease is the latest virtual time at which a reservation
	// was released; BufferDetach advances the caller past it.
	lastRelease vclock.Time
}

func newBsendPool(b buf.Block) *bsendPool {
	p := &bsendPool{backing: b}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// reserve claims n payload bytes plus overhead, returning a block view
// to pack into. It fails immediately when space is insufficient, like
// MPI_Bsend with a full buffer.
func (p *bsendPool) reserve(n int64) (buf.Block, func(vclock.Time), error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	need := n + BsendOverheadBytes
	if p.inUse+need > int64(p.backing.Len()) {
		return buf.Block{}, nil, fmt.Errorf("%w: need %d bytes, %d free",
			ErrBsendBuffer, need, int64(p.backing.Len())-p.inUse)
	}
	off := p.inUse
	p.inUse += need
	p.pending++
	region := p.backing.Slice(int(off), int(n))
	release := func(at vclock.Time) {
		p.mu.Lock()
		p.inUse -= need
		p.pending--
		if at > p.lastRelease {
			p.lastRelease = at
		}
		p.mu.Unlock()
		p.cond.Broadcast()
	}
	return region, release, nil
}

// drain blocks until every reservation is released, returning the
// latest release time (MPI_Buffer_detach semantics).
func (p *bsendPool) drain() vclock.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 {
		p.cond.Wait()
	}
	return p.lastRelease
}

// BufferAttach hands MPI a user buffer for subsequent Bsend calls,
// like MPI_Buffer_attach. Only one buffer can be attached at a time.
func (c *Comm) BufferAttach(b buf.Block) error {
	if c.attach != nil {
		return fmt.Errorf("%w: a buffer is already attached", ErrBsendBuffer)
	}
	c.attach = newBsendPool(b)
	return nil
}

// BufferDetach removes the attached buffer after all buffered sends
// using it have completed, advancing the clock to the last completion
// like the blocking MPI_Buffer_detach. It returns the buffer.
func (c *Comm) BufferDetach() (buf.Block, error) {
	if c.attach == nil {
		return buf.Block{}, fmt.Errorf("%w: no buffer attached", ErrBsendBuffer)
	}
	last := c.attach.drain()
	c.clock.AdvanceTo(last)
	b := c.attach.backing
	c.attach = nil
	return b, nil
}
