package mpi

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// Send transmits a contiguous buffer to dest, like MPI_Send of
// MPI_BYTEs. It blocks until the buffer is reusable: immediately after
// injection under the eager protocol, after the handshake and transfer
// under rendezvous.
func (c *Comm) Send(b buf.Block, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	return c.sendContig(b, dest, tag, sendFlags{})
}

// SendPacked is Send for payloads the caller gathered in user space
// (a manual copy loop or Comm.Pack output). Semantically identical to
// Send; the provenance flag feeds the Cray packed-eager artefact the
// paper observes in §4.5.
func (c *Comm) SendPacked(b buf.Block, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	return c.sendContig(b, dest, tag, sendFlags{packed: true})
}

// Ssend is the synchronous-mode send: it always uses the rendezvous
// protocol regardless of size, like MPI_Ssend.
func (c *Comm) Ssend(b buf.Block, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	return c.sendContig(b, dest, tag, sendFlags{forceRdv: true})
}

// Rsend is the ready-mode send. Like most MPI implementations, it is
// an alias for Send: the receiver-ready assertion enables no shortcut
// in this runtime.
func (c *Comm) Rsend(b buf.Block, dest, tag int) error {
	return c.Send(b, dest, tag)
}

// SendType transmits count instances of a derived datatype read from
// b, like MPI_Send with a non-contiguous type: the payload flows
// through MPI's internal chunked pack buffers (§2.3 of the paper) and
// suffers their large-message degradation (§4.1).
func (c *Comm) SendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	return c.sendTyped(b, count, ty, dest, tag, sendFlags{})
}

// SsendType is SendType under forced rendezvous.
func (c *Comm) SsendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	return c.sendTyped(b, count, ty, dest, tag, sendFlags{forceRdv: true})
}

// Bsend is the buffered send of a contiguous payload, like MPI_Bsend:
// the payload is copied into the buffer attached with BufferAttach and
// the call returns; transmission proceeds behind the sender's back.
// It fails with ErrBsendBuffer when the attached buffer cannot hold
// the message.
func (c *Comm) Bsend(b buf.Block, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	n := int64(b.Len())
	region, release, err := c.reserveBsend(n)
	if err != nil {
		return err
	}
	// Local copy into the attached buffer plus fixed Bsend overhead.
	copyCost := c.cache.CopyCost(b.Region(), region.Region(), n)
	c.clock.Advance(vclock.FromSeconds(copyCost + c.prof.BsendOverhead))
	buf.Copy(region, b)
	return c.bsendShip(region, n, dest, tag, release)
}

// BsendType is the buffered send of a derived datatype, the paper's
// "buffered" scheme: pack into the attached buffer, return, transmit
// behind the sender's back — which, as §4.2 observes, helps neither
// intermediate nor large messages.
func (c *Comm) BsendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	if count < 0 {
		return errNegativeCount(count)
	}
	n := ty.PackSize(count)
	packer, err := ty.NewPacker(b, count)
	if err != nil {
		return err
	}
	region, release, err := c.reserveBsend(n)
	if err != nil {
		return err
	}
	gather := c.cache.GatherCost(b.Region(), region.Region(), ty.Stats(count), memsim.Kernel{})
	c.clock.Advance(vclock.FromSeconds(gather + c.prof.BsendOverhead))
	if _, err := packer.Pack(region); err != nil {
		release(c.clock.Now())
		return err
	}
	return c.bsendShip(region, n, dest, tag, release)
}

func (c *Comm) reserveBsend(n int64) (buf.Block, func(vclock.Time), error) {
	if c.attach == nil {
		return buf.Block{}, nil, fmt.Errorf("%w: no buffer attached", ErrBsendBuffer)
	}
	return c.attach.reserve(n)
}

// bsendShip transmits an attached-buffer region as an eager-style
// message regardless of size (the data is already safely buffered), at
// the Bsend-derated internal bandwidth. Under faults every attempt
// ships a fresh transit copy — in-flight damage must never reach the
// user's attached buffer, and a retransmission needs pristine bytes —
// and the region is released sender-side once the payload's fate is
// settled (the retry loop runs on the caller, so a faulted Bsend loses
// its fire-and-forget return; the clean path keeps it).
func (c *Comm) bsendShip(region buf.Block, n int64, dest, tag int, release func(vclock.Time)) error {
	p := c.prof
	wire := 0.0
	if n > 0 {
		wire = float64(n) / (p.InternalBW(n) / p.BsendWireFactor)
	}
	injectEnd := c.clock.Now() + dur(wire)
	arrival := injectEnd + dur(c.linkLatency(dest))
	if !c.faultsOn() {
		c.deliverEager(dest, tag, region, n, injectEnd, sendFlags{
			onConsume: func() { release(arrival) },
		})
		return nil
	}
	attempt := 0
	for {
		f := c.deliverEager(dest, tag, c.transitCopy(region), n, injectEnd, sendFlags{})
		again, err := c.eagerRetryStep(&attempt, "bsend", dest, tag, f)
		if err != nil || !again {
			release(c.clock.Now() + dur(c.linkLatency(dest)))
			return err
		}
		injectEnd = c.clock.Now() + dur(wire)
	}
}

// Recv receives a contiguous message from src with the given tag
// (wildcards allowed), like MPI_Recv into MPI_BYTEs.
func (c *Comm) Recv(b buf.Block, src, tag int) (Status, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return Status{}, err
	}
	return c.recvContig(b, src, tag)
}

// RecvType receives count instances of a derived datatype, scattering
// the payload into b's layout, like MPI_Recv with a non-contiguous
// type.
func (c *Comm) RecvType(b buf.Block, count int, ty *datatype.Type, src, tag int) (Status, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return Status{}, err
	}
	if count < 0 {
		return Status{}, errNegativeCount(count)
	}
	return c.recvTyped(b, count, ty, src, tag)
}

// Sendrecv performs a simultaneous send and receive, deadlock-free,
// like MPI_Sendrecv.
func (c *Comm) Sendrecv(sb buf.Block, dest, stag int, rb buf.Block, src, rtag int) (Status, error) {
	req, err := c.Isend(sb, dest, stag)
	if err != nil {
		return Status{}, err
	}
	st, rerr := c.Recv(rb, src, rtag)
	if _, werr := req.Wait(); werr != nil {
		return st, werr
	}
	return st, rerr
}

// Probe blocks until a message matching (src, tag) is available and
// returns its status without receiving it, like MPI_Probe.
func (c *Comm) Probe(src, tag int) (Status, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return Status{}, err
	}
	ep := simnet.AnySource
	if src != AnySource {
		ep = c.endpoint(src)
	}
	me := c.endpoint(c.rank)
	var m *simnet.Message
	if c.fabric.Tracking() {
		release := c.fabric.EnterBlocked(simnet.BlockInfo{
			Rank: me, Op: "probe", Ctx: c.ctx, Src: ep, Tag: tag, Since: c.clock.Now(),
		}, func() bool { return c.fabric.Pending(me, c.ctx, ep, tag) })
		var err error
		m, err = c.fabric.ProbeCancel(me, c.ctx, ep, tag, c.cancelCh)
		release()
		if err != nil {
			return Status{}, err
		}
	} else {
		m = c.fabric.Probe(me, c.ctx, ep, tag)
		if m == nil {
			return Status{}, c.abortErrFor("probe")
		}
	}
	c.clock.AdvanceTo(m.Arrival)
	return Status{Source: c.localRank(m.Src), Tag: m.Tag, Count: m.Bytes}, nil
}

// Iprobe is the non-blocking Probe, like MPI_Iprobe.
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return Status{}, false, err
	}
	ep := simnet.AnySource
	if src != AnySource {
		ep = c.endpoint(src)
	}
	m := c.fabric.TryMatch(c.endpoint(c.rank), c.ctx, ep, tag)
	if m == nil {
		return Status{}, false, nil
	}
	return Status{Source: c.localRank(m.Src), Tag: m.Tag, Count: m.Bytes}, true, nil
}

func (c *Comm) checkP2P(dest, tag int) error {
	if err := c.checkRank(dest); err != nil {
		return err
	}
	return checkTag(tag)
}

// errNegativeCount is every typed entry point's error for count < 0.
func errNegativeCount(count int) error {
	return fmt.Errorf("%w: %d", ErrCount, count)
}

func (c *Comm) checkRecvArgs(src, tag int) error {
	if src != AnySource {
		if err := c.checkRank(src); err != nil {
			return err
		}
	}
	if tag != AnyTag {
		return checkTag(tag)
	}
	return nil
}
