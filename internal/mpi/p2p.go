package mpi

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/memsim"
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

// SendType transmits count instances of a derived datatype read from
// b, like MPI_Send with a non-contiguous type: the payload flows
// through MPI's internal chunked pack buffers (§2.3 of the paper) and
// suffers their large-message degradation (§4.1).
func (c *Comm) SendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	return c.sendTypedChecked(b, count, ty, dest, tag, sendFlags{})
}

// SsendType is SendType under forced rendezvous.
func (c *Comm) SsendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	return c.sendTypedChecked(b, count, ty, dest, tag, sendFlags{forceRdv: true})
}

// BsendType is the buffered send of a derived datatype, the paper's
// "buffered" scheme: pack into the attached buffer, return, transmit
// behind the sender's back — which, as §4.2 observes, helps neither
// intermediate nor large messages.
func (c *Comm) BsendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkTypedSend(count, ty, dest, tag); err != nil {
		return err
	}
	n := ty.PackSize(count)
	plan, err := typedPlan(b, count, ty)
	if err != nil {
		return err
	}
	region, release, err := c.reserveBsend(n)
	if err != nil {
		return err
	}
	gather := c.cache.GatherCost(b.Region(), region.Region(), plan.Stats(), memsim.Kernel{})
	c.clock.Advance(vclock.FromSeconds(gather + c.prof.BsendOverhead))
	if _, err := plan.Pack(b, region); err != nil {
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
	if err := checkCount(count, ty); err != nil {
		return Status{}, err
	}
	return c.recvTyped(b, count, ty, src, tag)
}

func (c *Comm) checkP2P(dest, tag int) error {
	if err := c.checkRank(dest); err != nil {
		return err
	}
	return checkTag(tag)
}

// checkTypedSend is every typed send's check of its arguments, blocking
// and non-blocking: the peer and tag (checkP2P), then the count and
// type (checkCount).
func (c *Comm) checkTypedSend(count int, ty *datatype.Type, dest, tag int) error {
	if err := c.checkP2P(dest, tag); err != nil {
		return err
	}
	return checkCount(count, ty)
}

// sendTypedChecked is the one checked entry of the blocking typed
// sends: checkTypedSend, then the fused engine for a sendv send and the
// staged one for every other.
func (c *Comm) sendTypedChecked(b buf.Block, count int, ty *datatype.Type, dest, tag int, fl sendFlags) error {
	if err := c.checkTypedSend(count, ty, dest, tag); err != nil {
		return err
	}
	if fl.sendv {
		return c.sendTypedFused(b, count, ty, dest, tag, fl)
	}
	return c.sendTyped(b, count, ty, dest, tag, fl)
}

// checkCount is every typed entry point's check of its count and type,
// before anything is charged or touched: a count under zero is
// ErrCount, a nil type datatype.ErrArgument.
func checkCount(count int, ty *datatype.Type) error {
	if count < 0 {
		return fmt.Errorf("%w: %d", ErrCount, count)
	}
	if ty == nil {
		return fmt.Errorf("%w: nil type", datatype.ErrArgument)
	}
	return nil
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
