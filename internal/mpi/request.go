package mpi

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// asyncKind names the protocol routine a request's background half runs.
type asyncKind uint8

const (
	opSendContig asyncKind = iota
	opSendTyped
	opSendFused
	opRecvContig
	opRecvTyped
)

// Request tracks a non-blocking operation, like MPI_Request. Complete
// it with Wait.
//
// The request is the operation's only allocation besides its goroutine:
// it holds the operands, the view of the communicator the background
// half executes on (the owner's core with this request's own clock)
// and its two events. It is never pooled: the caller keeps the
// pointer past completion, and a Wait on a finished request must keep
// answering with a RequestStateError that carries the original result,
// which a recycled object could not.
type Request struct {
	owner *Comm
	half  Comm         // the background half's view; its clock is &clock
	clock vclock.Clock // starts at the owner's time, folded back by Wait

	// The operation: kind selects the routine, the rest are its
	// operands (peer is the destination of a send, the source of a
	// receive). A non-empty leg attributes a failure to its collective
	// leg.
	kind  asyncKind
	b     buf.Block
	count int
	ty    *datatype.Type
	peer  int
	tag   int
	fl    sendFlags
	leg   string
	// owesPost is set while a send's starter waits for posted.
	owesPost bool

	// posted is set once a send's envelope has entered the fabric (or
	// the send failed before that); done once the background half has
	// stored status and err.
	posted, done simnet.Flag

	status   Status
	err      error
	finished bool
	id       int
}

// IsendType starts a non-blocking derived-datatype send.
func (c *Comm) IsendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkTypedSend(count, ty, dest, tag); err != nil {
		return nil, err
	}
	return c.startAsyncSend(&Request{kind: opSendTyped, b: b, count: count, ty: ty, peer: dest, tag: tag}), nil
}

// startAsync launches r's background half on its own view of the
// communicator, registered with the quiescence detector as a worker.
func (c *Comm) startAsync(r *Request) *Request {
	c.reqSeq++
	r.owner, r.id = c, c.reqSeq
	r.clock = *c.clock
	r.half = *c
	r.half.clock = &r.clock
	c.fabric.WorkerStart()
	go r.run()
	return r
}

// run is the background half: the operation itself, then completion.
// done is set before the half leaves the detector's runnable count, so
// a Wait never reads as stuck on a request that has finished.
func (r *Request) run() {
	cc := &r.half
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("mpi: async op panicked: %v", p)
		}
		r.signalPosted() // a send that failed before delivering
		r.done.Set(cc.fabric, cc.endpoint(cc.rank))
		cc.fabric.WorkerDone()
	}()
	switch r.kind {
	case opSendContig:
		r.err = cc.sendContig(r.b, r.peer, r.tag, r.fl)
	case opSendTyped:
		r.err = cc.sendTyped(r.b, r.count, r.ty, r.peer, r.tag, r.fl)
	case opSendFused:
		r.err = cc.sendTypedFused(r.b, r.count, r.ty, r.peer, r.tag, r.fl)
	case opRecvContig:
		r.status, r.err = cc.recvContig(r.b, r.peer, r.tag)
	case opRecvTyped:
		r.status, r.err = cc.recvTyped(r.b, r.count, r.ty, r.peer, r.tag)
	}
	if r.leg != "" {
		r.err = legWrap(r.peer, r.leg, r.err)
	}
}

// startAsyncSend starts a send request. To preserve MPI's
// non-overtaking rule the envelope must enter the fabric before the
// start returns, so a later blocking send from the same rank cannot
// overtake it. The protocol layer sets the request's posted flag right
// after it enqueues the envelope (both sendContig and sendTyped deliver
// before they first block), and a half that fails earlier sets it on
// its way out. An abort ends the wait early; Wait then reports it.
func (c *Comm) startAsyncSend(r *Request) *Request {
	r.owesPost = true
	r.fl.isend = r
	c.startAsync(r)
	_ = c.await("isend-post", r.peer, r.tag, &r.posted)
	return r
}

// signalPosted releases the starter of a send request, once; a no-op on
// the nil request of a blocking send.
func (r *Request) signalPosted() {
	if r != nil && r.owesPost {
		r.owesPost = false
		r.posted.Set(r.half.fabric, r.half.endpoint(r.half.rank))
	}
}

// IrecvType starts a non-blocking derived-datatype receive, like
// MPI_Irecv with a non-contiguous type: the payload is scattered into
// b's layout when the matching send completes, and a rendezvous sendv
// sender is offered the layout for the fused one-pass scatter exactly
// as RecvType offers it. The receive posts when the background half
// first touches the fabric, so when several IrecvTypes with overlapping
// patterns are outstanding their matching order is unspecified (a
// documented divergence from MPI's posted-receive queue order; the
// benchmark patterns never rely on it).
func (c *Comm) IrecvType(b buf.Block, count int, ty *datatype.Type, src, tag int) (*Request, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return nil, err
	}
	if err := checkCount(count, ty); err != nil {
		return nil, err
	}
	return c.startAsync(&Request{kind: opRecvTyped, b: b, count: count, ty: ty, peer: src, tag: tag}), nil
}

// misuse builds the typed error of a Wait on an already-completed
// request: a RequestStateError matching ErrRequestInactive that still
// carries the error the request originally finished with — or, when the
// first Wait returned on an abort before the half finished, the abort
// reason — so a double Wait after a fabric abort does not swallow it.
func (r *Request) misuse() error {
	aborted := r.owner.fabric.AbortErr()
	prior := aborted
	if r.done.Ready() {
		prior = r.err
	}
	state := "finished"
	if prior != nil && aborted != nil {
		state = "aborted"
	}
	return &RequestStateError{Op: "wait", Rank: r.owner.rank, ID: r.id, State: state, Cause: ErrRequestInactive, Prior: prior}
}

// Wait blocks until the operation completes and folds its virtual time
// into the caller, like MPI_Wait. Waiting twice on the same request is
// request misuse and returns a typed RequestStateError matching
// ErrRequestInactive. An abort of the fabric ends the wait with the
// abort reason unless the half has finished; the half's own waits
// unwind too, and its clock and status are then left unread.
func (r *Request) Wait() (Status, error) {
	if r.finished {
		return Status{}, r.misuse()
	}
	r.finished = true
	if err := r.owner.await("wait", AnySource, AnyTag, &r.done); err != nil {
		return Status{}, err
	}
	r.owner.clock.AdvanceTo(r.clock.Now())
	return r.status, r.err
}
