package mpi

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/memsim"
)

// PersistentRequest is a reusable communication request, the analogue
// of MPI_Send_init / MPI_Recv_init. Start launches one instance;
// Wait completes it; the request can then be started again; Free
// retires it. Real ping-pong benchmarks (and the paper's public code
// base) often use persistent requests to amortise setup, so the
// runtime supports them — and because the same transfer repeats, they
// are the natural measurement vehicle of the self-tuning loop: when
// the Comm has an observed-cost sink attached (ObserveInto), every
// Start/Wait cycle records its virtual-clock cost against the
// operation's transfer path, and the fitted coefficients feed
// core.Recommend through Query.Observed.
type PersistentRequest struct {
	owner  *Comm
	start  func() (*Request, error)
	active *Request
	freed  bool

	// observation of the send side: path names the engine
	// (memsim.Path*), bytes the payload; zero path disables.
	path    string
	bytes   int64
	startAt float64
}

// SendInit creates a persistent contiguous send request.
func (c *Comm) SendInit(b buf.Block, dest, tag int) (*PersistentRequest, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	return &PersistentRequest{
		owner: c,
		start: func() (*Request, error) { return c.Isend(b, dest, tag) },
		path:  memsim.PathContigSend,
		bytes: int64(b.Len()),
	}, nil
}

// SendTypeInit creates a persistent derived-datatype send request.
func (c *Comm) SendTypeInit(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*PersistentRequest, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return &PersistentRequest{
		owner: c,
		start: func() (*Request, error) { return c.IsendType(b, count, ty, dest, tag) },
		path:  memsim.PathTypedSend,
		bytes: ty.PackSize(count),
	}, nil
}

// RecvInit creates a persistent receive request.
func (c *Comm) RecvInit(b buf.Block, src, tag int) (*PersistentRequest, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return nil, err
	}
	return &PersistentRequest{
		owner: c,
		start: func() (*Request, error) { return c.Irecv(b, src, tag) },
	}, nil
}

// RecvTypeInit creates a persistent derived-datatype receive request:
// count instances of ty land in b's layout on every Start/Wait cycle,
// like MPI_Recv_init with a derived type.
func (c *Comm) RecvTypeInit(b buf.Block, count int, ty *datatype.Type, src, tag int) (*PersistentRequest, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return &PersistentRequest{
		owner: c,
		start: func() (*Request, error) { return c.IrecvType(b, count, ty, src, tag) },
	}, nil
}

// Start launches one instance of the operation, like MPI_Start. It is
// an error to start an already-active or freed request.
func (p *PersistentRequest) Start() error {
	if p.freed {
		return &RequestStateError{Op: "start", Rank: p.owner.rank, State: "freed", Cause: ErrRequestFreed}
	}
	if p.active != nil {
		return &RequestStateError{Op: "start", Rank: p.owner.rank, State: "active", Cause: ErrRequestActive}
	}
	if p.path != "" && p.owner.observed != nil {
		p.startAt = p.owner.Wtime()
	}
	r, err := p.start()
	if err != nil {
		return err
	}
	p.active = r
	return nil
}

// Wait completes the active instance, like MPI_Wait on a started
// persistent request, and re-arms the request for the next Start.
// When the owning Comm has an observed-cost sink, the cycle's
// virtual-clock cost is recorded against the operation's path.
func (p *PersistentRequest) Wait() (Status, error) {
	if p.freed {
		return Status{}, &RequestStateError{Op: "wait", Rank: p.owner.rank, State: "freed", Cause: ErrRequestFreed}
	}
	if p.active == nil {
		return Status{}, &RequestStateError{Op: "wait", Rank: p.owner.rank, State: "inactive", Cause: ErrRequestInactive}
	}
	st, err := p.active.Wait()
	p.active = nil
	if err == nil && p.path != "" {
		if o := p.owner.observed; o != nil {
			o.Observe(p.path, p.bytes, p.owner.Wtime()-p.startAt)
		}
	}
	return st, err
}

// Free retires the request, like MPI_Request_free on an inactive
// persistent request. Freeing an active (started, un-waited) request
// and freeing twice are request misuse and return typed
// RequestStateErrors — a double Free is a lifecycle bug a fault-laden
// run would otherwise mask as success.
func (p *PersistentRequest) Free() error {
	if p.active != nil {
		return &RequestStateError{Op: "free", Rank: p.owner.rank, State: "active", Cause: ErrRequestActive}
	}
	if p.freed {
		return &RequestStateError{Op: "free", Rank: p.owner.rank, State: "freed", Cause: ErrRequestFreed}
	}
	p.freed = true
	return nil
}

// Active reports whether the request has a started, un-waited
// instance.
func (p *PersistentRequest) Active() bool { return p.active != nil }

// StartAll starts a set of persistent requests, like MPI_Startall.
func StartAll(reqs ...*PersistentRequest) error {
	for _, r := range reqs {
		if err := r.Start(); err != nil {
			return err
		}
	}
	return nil
}

// WaitAllPersistent completes a set of started persistent requests,
// like MPI_Waitall over persistent requests: every request is waited
// even after an error, and the first error is returned.
func WaitAllPersistent(reqs ...*PersistentRequest) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Gatherv concentrates variable-sized contributions at the root in
// rank order, like MPI_Gatherv: counts[i] bytes land at displs[i] in
// recv. counts and displs are only read at the root.
func (c *Comm) Gatherv(send buf.Block, recv buf.Block, counts, displs []int, root int) error {
	return c.collErr("Gatherv", c.gatherv(send, recv, counts, displs, root))
}

func (c *Comm) gatherv(send buf.Block, recv buf.Block, counts, displs []int, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if c.rank != root {
		return c.csend(send, root)
	}
	if len(counts) != c.size || len(displs) != c.size {
		return fmt.Errorf("%w: gatherv needs %d counts/displs, have %d/%d", ErrCount, c.size, len(counts), len(displs))
	}
	for r := 0; r < c.size; r++ {
		if counts[r] < 0 || displs[r] < 0 || displs[r]+counts[r] > recv.Len() {
			return fmt.Errorf("%w: gatherv slot %d [%d,%d) outside %d-byte buffer",
				ErrTruncate, r, displs[r], displs[r]+counts[r], recv.Len())
		}
		dst := recv.Slice(displs[r], counts[r])
		if r == root {
			buf.Copy(dst, send)
			c.Charge(c.cache.CopyCost(send.Region(), recv.Region(), int64(counts[r])))
			continue
		}
		if _, err := c.recvContig(dst, r, collTag); err != nil {
			return err
		}
	}
	return nil
}

// Scatterv distributes variable-sized slices of the root's buffer,
// like MPI_Scatterv.
func (c *Comm) Scatterv(send buf.Block, counts, displs []int, recv buf.Block, root int) error {
	return c.collErr("Scatterv", c.scatterv(send, counts, displs, recv, root))
}

func (c *Comm) scatterv(send buf.Block, counts, displs []int, recv buf.Block, root int) error {
	if err := c.checkRank(root); err != nil {
		return err
	}
	if c.rank != root {
		_, err := c.recvContig(recv, root, collTag)
		return err
	}
	if len(counts) != c.size || len(displs) != c.size {
		return fmt.Errorf("%w: scatterv needs %d counts/displs, have %d/%d", ErrCount, c.size, len(counts), len(displs))
	}
	for r := 0; r < c.size; r++ {
		if counts[r] < 0 || displs[r] < 0 || displs[r]+counts[r] > send.Len() {
			return fmt.Errorf("%w: scatterv slot %d [%d,%d) outside %d-byte buffer",
				ErrTruncate, r, displs[r], displs[r]+counts[r], send.Len())
		}
		src := send.Slice(displs[r], counts[r])
		if r == root {
			buf.Copy(recv, src)
			c.Charge(c.cache.CopyCost(send.Region(), recv.Region(), int64(counts[r])))
			continue
		}
		if err := c.csend(src, r); err != nil {
			return err
		}
	}
	return nil
}
