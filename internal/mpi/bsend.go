package mpi

import (
	"fmt"
	"sync"

	"repro/internal/buf"
	"repro/internal/simnet"
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
// the exhaustion semantics the tests exercise. Its event is the drain:
// every reservation released, which wakes the owner's endpoint.
type bsendPool struct {
	mu      sync.Mutex
	backing buf.Block
	inUse   int64
	pending int
	// lastRelease is the latest virtual time at which a reservation
	// was released; BufferDetach advances the caller past it.
	lastRelease vclock.Time

	fabric *simnet.Fabric
	owner  int // the attaching rank's endpoint
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
		p.fabric.Wake(p.owner)
	}
	return region, release, nil
}

// Ready reports whether every reservation has been released.
func (p *bsendPool) Ready() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending == 0
}

// BufferAttach hands MPI a user buffer for subsequent Bsend calls,
// like MPI_Buffer_attach. Only one buffer can be attached at a time.
func (c *Comm) BufferAttach(b buf.Block) error {
	if c.attach != nil {
		return fmt.Errorf("%w: a buffer is already attached", ErrBsendBuffer)
	}
	c.attach = &bsendPool{backing: b, fabric: c.fabric, owner: c.endpoint(c.rank)}
	return nil
}

// BufferDetach removes the attached buffer after all buffered sends
// using it have completed, advancing the clock to the last completion
// like the blocking MPI_Buffer_detach. It returns the buffer, or the
// abort of the fabric if that comes first (the buffer stays attached).
func (c *Comm) BufferDetach() (buf.Block, error) {
	if c.attach == nil {
		return buf.Block{}, fmt.Errorf("%w: no buffer attached", ErrBsendBuffer)
	}
	if err := c.await("bsend-detach", AnySource, AnyTag, c.attach); err != nil {
		return buf.Block{}, err
	}
	c.attach.mu.Lock()
	last := c.attach.lastRelease
	c.attach.mu.Unlock()
	c.clock.AdvanceTo(last)
	b := c.attach.backing
	c.attach = nil
	return b, nil
}
