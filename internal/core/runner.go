package core

import (
	"fmt"
	"unsafe"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/mpi"
)

// Tags of the ping-pong protocol.
const (
	pingTag = 0
	pongTag = 1
)

// srcSeed is the deterministic fill pattern of the source payload;
// receivers regenerate it to verify transfers byte for byte.
const srcSeed byte = 0xA5

// Runner drives one scheme on one rank of a ping-pong pair. The
// measurement protocol is the paper's (§3.2): the ping is the
// non-contiguous send, the receiver receives into a contiguous
// buffer, the pong is a zero-byte reply (two-sided) or the epoch
// fences themselves (one-sided).
//
// Buffer allocation, pattern fills (page instantiation) and datatype
// commits all happen in Setup, outside any timing loop, exactly like
// the paper's protocol.
type Runner interface {
	// Setup allocates buffers and communication objects for the
	// workload. peer is the other rank of the pair.
	Setup(c *mpi.Comm, w Workload, peer int) error
	// Ping performs the timed non-contiguous transfer plus the pong
	// wait on the origin rank.
	Ping() error
	// Pong performs the receiver side of one ping-pong.
	Pong() error
	// Check verifies the last received payload byte-for-byte on the
	// receiver rank (no-op for virtual payloads).
	Check() error
	// Teardown releases communication objects (windows, attached
	// buffers). Buffers are garbage collected.
	Teardown() error
}

// NewRunner builds the Runner for a scheme. The runner owns a private
// fixture set, rebuilt by every Setup; the cells of a grid share one
// through Fixtures.NewRunner instead.
func NewRunner(s Scheme) (Runner, error) { return (*Fixtures)(nil).NewRunner(s) }

// pairState carries what every scheme needs.
type pairState struct {
	c    *mpi.Comm
	w    Workload
	peer int

	shared *Fixtures    // the grid's fixture set; nil: a private one per Setup
	fx     *Fixtures    // the set this Setup draws from (real payloads only)
	mem    *rankScratch // this rank's scratch in fx

	src     buf.Block // strided source payload (sender)
	recvbuf buf.Block // contiguous destination (receiver)
	pong    buf.Block // zero-byte reply
}

// init hands out the cell's source and receive buffer: pattern-filled
// and zeroed respectively, pages instantiated, outside the timing loop
// (§3.2).
func (ps *pairState) init(c *mpi.Comm, w Workload, peer int) error {
	if err := w.Validate(); err != nil {
		return err
	}
	ps.c, ps.w, ps.peer = c, w, peer
	ps.pong = buf.Alloc(0)
	if w.Virtual {
		ps.src = buf.Virtual(int(w.SrcBytes()))
		ps.recvbuf = buf.Virtual(int(w.Bytes()))
		return nil
	}
	if ps.shared == nil {
		fx, err := NewFixtures([]Workload{w})
		if err != nil {
			return err
		}
		ps.fx, ps.mem = fx, &fx.ranks[0] // this rank is the set's only user
	} else {
		if _, ok := ps.shared.want[w]; !ok {
			return fmt.Errorf("core: workload %+v is not part of the fixture set", w)
		}
		if c.Size() != len(ps.shared.ranks) {
			return fmt.Errorf("core: a shared fixture set serves a pair, not %d ranks", c.Size())
		}
		ps.fx, ps.mem = ps.shared, &ps.shared.ranks[c.Rank()]
	}
	ps.src = view(ps.fx.src, w.SrcBytes())
	ps.recvbuf = ps.fx.scratch(&ps.mem.recv, w.Bytes())
	return nil
}

// sendBlock hands out the n-byte buffer the cell's scheme sends from.
func (ps *pairState) sendBlock(n int64) buf.Block {
	if ps.w.Virtual {
		return buf.Virtual(int(n))
	}
	return ps.fx.scratch(&ps.mem.send, n)
}

// pongTwoSided is the shared receiver side of all two-sided schemes:
// contiguous receive, zero-byte reply.
func (ps *pairState) pongTwoSided() error {
	if _, err := ps.c.Recv(ps.recvbuf, ps.peer, pingTag); err != nil {
		return err
	}
	return ps.c.Send(ps.pong, ps.peer, pongTag)
}

// waitPong is the shared sender-side completion of the two-sided
// ping-pong.
func (ps *pairState) waitPong() error {
	_, err := ps.c.Recv(ps.pong, ps.peer, pongTag)
	return err
}

// check verifies the receive buffer against the expected pack of the
// fixture set.
func (ps *pairState) check() error {
	if ps.w.Virtual {
		return nil
	}
	if want := ps.fx.want[ps.w]; !buf.Equal(ps.recvbuf, want) {
		return fmt.Errorf("core: received payload differs from expected pack (%d bytes)", want.Len())
	}
	return nil
}

// gatherLoop is the user-space manual copy: the paper's "copying"
// scheme inner loop. It moves the bytes (for real payloads) and
// charges the gather cost on the virtual clock.
func (ps *pairState) gatherLoop(dst buf.Block) {
	lay := ps.w.Layout()
	st := layout.Describe(lay)
	ps.c.Charge(ps.c.Cache().GatherCost(ps.src.Region(), dst.Region(), st, memsim.Kernel{}))
	if ps.src.IsVirtual() || dst.IsVirtual() {
		return
	}
	if s, ok := lay.(layout.Strided); ok {
		gatherStrided(dst.Bytes(), ps.src.Bytes(), s)
		return
	}
	off := 0
	lay.ForEach(func(s layout.Segment) bool {
		buf.CopyAt(dst, off, ps.src, int(s.Off), int(s.Len))
		off += int(s.Len)
		return true
	})
}

// gatherStrided is the indexed loop the paper's user writes for a
// regular stride (§2.2): an 8-byte block moves as one word, any other
// block length as one copy. The word loop's bounds are checked once, the
// way a C compiler has nothing to check in the user's loop at all: both
// slices are resliced to the last word the loop touches — a layout the
// buffers do not hold panics there, before a byte has moved — and the
// words then move at offsets from the two base pointers.
func gatherStrided(dst, src []byte, s layout.Strided) {
	count, blockLen, stride := s.Count, s.BlockLen, s.Stride
	if blockLen != 8 || stride < 0 || count <= 0 {
		for i := int64(0); i < count; i++ {
			copy(dst[i*blockLen:(i+1)*blockLen], src[i*stride:])
		}
		return
	}
	dst, src = dst[:count*8], src[:(count-1)*stride+8]
	dp, sp := unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0])
	var to, from int64
	for ; count >= 4; count -= 4 {
		*(*[8]byte)(unsafe.Add(dp, to)) = *(*[8]byte)(unsafe.Add(sp, from))
		*(*[8]byte)(unsafe.Add(dp, to+8)) = *(*[8]byte)(unsafe.Add(sp, from+stride))
		*(*[8]byte)(unsafe.Add(dp, to+16)) = *(*[8]byte)(unsafe.Add(sp, from+2*stride))
		*(*[8]byte)(unsafe.Add(dp, to+24)) = *(*[8]byte)(unsafe.Add(sp, from+3*stride))
		to += 32
		from += 4 * stride
	}
	for ; count > 0; count-- {
		*(*[8]byte)(unsafe.Add(dp, to)) = *(*[8]byte)(unsafe.Add(sp, from))
		to += 8
		from += stride
	}
}

// referenceRunner sends a contiguous buffer of the same byte count:
// the attainable rate of the installation (§2.1).
type referenceRunner struct {
	pairState
	contig buf.Block
}

func (r *referenceRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	if w.Virtual {
		r.contig = buf.Virtual(int(w.Bytes()))
	} else {
		// The reference payload is the packed pattern so receivers can
		// verify it with the same check as every other scheme.
		r.contig = view(r.fx.want[w], w.Bytes())
	}
	return nil
}

func (r *referenceRunner) Ping() error {
	if err := r.c.Send(r.contig, r.peer, pingTag); err != nil {
		return err
	}
	return r.waitPong()
}

func (r *referenceRunner) Pong() error     { return r.pongTwoSided() }
func (r *referenceRunner) Check() error    { return r.check() }
func (r *referenceRunner) Teardown() error { return nil }

// copyingRunner is §2.2: gather into a reusable contiguous buffer with
// a user loop, then send the buffer.
type copyingRunner struct {
	pairState
	sendbuf buf.Block
}

func (r *copyingRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	r.sendbuf = r.sendBlock(w.Bytes())
	return nil
}

func (r *copyingRunner) Ping() error {
	r.gatherLoop(r.sendbuf)
	if err := r.c.SendPacked(r.sendbuf, r.peer, pingTag); err != nil {
		return err
	}
	return r.waitPong()
}

func (r *copyingRunner) Pong() error     { return r.pongTwoSided() }
func (r *copyingRunner) Check() error    { return r.check() }
func (r *copyingRunner) Teardown() error { return nil }

// typedRunner is §2.3: send the derived datatype directly (vector or
// subarray variant).
type typedRunner struct {
	pairState
	scheme Scheme
	ty     *datatype.Type
}

func (r *typedRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	var err error
	if r.scheme == Subarray {
		r.ty, err = w.SubarrayType()
	} else {
		r.ty, err = w.VectorType()
	}
	return err
}

func (r *typedRunner) Ping() error {
	if err := r.c.SendType(r.src, 1, r.ty, r.peer, pingTag); err != nil {
		return err
	}
	return r.waitPong()
}

func (r *typedRunner) Pong() error     { return r.pongTwoSided() }
func (r *typedRunner) Check() error    { return r.check() }
func (r *typedRunner) Teardown() error { return nil }

// bufferedRunner is §2.4: attach a user buffer, MPI_Bsend the derived
// type.
type bufferedRunner struct {
	pairState
	ty       *datatype.Type
	attached bool
}

func (r *bufferedRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	var err error
	if r.ty, err = w.VectorType(); err != nil {
		return err
	}
	// The sender attaches a buffer big enough for one in-flight
	// message, like the paper's MPI_Buffer_attach before MPI_Bsend.
	if c.Rank() == 0 {
		if err := c.BufferAttach(r.sendBlock(w.Bytes() + bsendSlack)); err != nil {
			return err
		}
		r.attached = true
	}
	return nil
}

func (r *bufferedRunner) Ping() error {
	if err := r.c.BsendType(r.src, 1, r.ty, r.peer, pingTag); err != nil {
		return err
	}
	return r.waitPong()
}

func (r *bufferedRunner) Pong() error  { return r.pongTwoSided() }
func (r *bufferedRunner) Check() error { return r.check() }

func (r *bufferedRunner) Teardown() error {
	if r.attached {
		r.attached = false
		_, err := r.c.BufferDetach()
		return err
	}
	return nil
}

// oneSidedRunner is §2.5: MPI_Put of the derived type surrounded by
// active-target fences; the timers surround the fences.
type oneSidedRunner struct {
	pairState
	ty  *datatype.Type
	win *mpi.Win
}

func (r *oneSidedRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	var err error
	if r.ty, err = w.VectorType(); err != nil {
		return err
	}
	// Both ranks expose their contiguous receive buffer; only the
	// target's is written.
	r.win, err = c.WinCreate(r.recvbuf)
	return err
}

func (r *oneSidedRunner) Ping() error {
	if err := r.win.Fence(); err != nil {
		return err
	}
	if err := r.win.Put(r.src, 1, r.ty, r.peer, 0); err != nil {
		return err
	}
	return r.win.Fence()
}

func (r *oneSidedRunner) Pong() error {
	if err := r.win.Fence(); err != nil {
		return err
	}
	return r.win.Fence()
}

func (r *oneSidedRunner) Check() error { return r.check() }

func (r *oneSidedRunner) Teardown() error {
	if r.win == nil {
		return nil
	}
	err := r.win.Free()
	r.win = nil
	return err
}

// sendvRunner is the fused zero-copy rendezvous scheme: the derived
// datatype is sent with mpi.SendvType, so under rendezvous the
// compiled plan packs the strided source straight into the receiver's
// contiguous buffer in one pass — no staging allocation, no
// MPI-internal chunk buffers — and eager-sized messages fall back to
// the ordinary typed path.
type sendvRunner struct {
	pairState
	ty *datatype.Type
}

func (r *sendvRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	var err error
	r.ty, err = w.VectorType()
	return err
}

func (r *sendvRunner) Ping() error {
	if err := r.c.SendvType(r.src, 1, r.ty, r.peer, pingTag); err != nil {
		return err
	}
	return r.waitPong()
}

func (r *sendvRunner) Pong() error     { return r.pongTwoSided() }
func (r *sendvRunner) Check() error    { return r.check() }
func (r *sendvRunner) Teardown() error { return nil }

// pipelinedRunner is the software-pipelined typed scheme: the derived
// datatype is sent with mpi.SendpType, so past the eager limit the
// rendezvous chunk loop overlaps packing against injection through the
// chunk-slot ring — the §2.3 pipelining the measured installations
// never realise — while eager-sized messages fall back to the ordinary
// typed path.
type pipelinedRunner struct {
	pairState
	ty *datatype.Type
}

func (r *pipelinedRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	var err error
	r.ty, err = w.VectorType()
	return err
}

func (r *pipelinedRunner) Ping() error {
	if err := r.c.SendpType(r.src, 1, r.ty, r.peer, pingTag); err != nil {
		return err
	}
	return r.waitPong()
}

func (r *pipelinedRunner) Pong() error     { return r.pongTwoSided() }
func (r *pipelinedRunner) Check() error    { return r.check() }
func (r *pipelinedRunner) Teardown() error { return nil }

// packRunner covers §2.6: explicit MPI_Pack into a user buffer, then a
// contiguous send of the packed bytes. PackVector issues one pack call
// on the whole vector datatype; PackElement pays one pack call per
// element — the scheme the paper predicts to perform "very badly".
// PackCompiled issues the same single call through the compiled
// pack-plan engine, the compiled-vs-interpreted comparison column.
type packRunner struct {
	pairState
	scheme  Scheme
	ty      *datatype.Type
	sendbuf buf.Block
}

func (r *packRunner) Setup(c *mpi.Comm, w Workload, peer int) error {
	if err := r.init(c, w, peer); err != nil {
		return err
	}
	var err error
	if r.ty, err = w.VectorType(); err != nil {
		return err
	}
	r.sendbuf = r.sendBlock(w.Bytes())
	return nil
}

func (r *packRunner) Ping() error {
	var pos int64
	switch r.scheme {
	case PackVector:
		// One MPI_Pack call on the whole derived type (§4.3: as
		// efficient as the user copy loop).
		if err := r.c.Pack(r.src, 1, r.ty, r.sendbuf, &pos); err != nil {
			return err
		}
	case PackCompiled:
		// One pack call executed by the compiled plan kernel.
		if err := r.c.PackCompiled(r.src, 1, r.ty, r.sendbuf, &pos); err != nil {
			return err
		}
	case PackElement:
		// One MPI_Pack call per element: the per-call overhead
		// dominates. The calls are priced individually and the data
		// moves through the same pack engine.
		elems := r.w.Elems()
		r.c.Charge(float64(elems) * r.c.Profile().CallOverhead)
		st := layout.Describe(r.w.Layout())
		r.c.Charge(r.c.Cache().GatherCost(r.src.Region(), r.sendbuf.Region(), st, memsim.Kernel{}))
		if !r.w.Virtual {
			if _, err := r.ty.Pack(r.src, 1, r.sendbuf); err != nil {
				return err
			}
		}
		pos = r.w.Bytes()
	}
	if err := r.c.SendPacked(r.sendbuf.Slice(0, int(pos)), r.peer, pingTag); err != nil {
		return err
	}
	return r.waitPong()
}

func (r *packRunner) Pong() error     { return r.pongTwoSided() }
func (r *packRunner) Check() error    { return r.check() }
func (r *packRunner) Teardown() error { return nil }
