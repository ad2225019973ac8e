package mpi

import (
	"fmt"
	"sync"

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
// The request holds the operation's result and nothing else: the clock
// its background half advances, the two events, and what Wait
// returns. It is the operation's one heap allocation. The operands
// and the half's view of the communicator live in a pooled half
// record, and the half starts from the rank's launcher, not from a
// closure. It is never pooled: the caller keeps the pointer past
// completion, and a Wait on a finished request must keep answering
// with a RequestStateError that carries the original result, which a
// recycled object could not.
type Request struct {
	owner *Comm
	clock vclock.Clock // the half's clock: starts at the owner's time, folded back by Wait

	// posted is set once a send's envelope has entered the fabric (or
	// the send failed before that); done once the background half has
	// stored status and err.
	posted, done simnet.Flag

	status   Status
	err      error
	finished bool
	id       int
}

// asyncOp is the operation a request's half runs: kind selects the
// routine, the rest are its operands (peer is the destination of a
// send, the source of a receive). A non-empty leg attributes a failure
// to its collective leg.
type asyncOp struct {
	kind  asyncKind
	b     buf.Block
	count int
	ty    *datatype.Type
	peer  int
	tag   int
	fl    sendFlags
	leg   string
}

// half is a request's background half: the operation and the view of
// the communicator it executes on (the owner's core with the request's
// own clock). Records are pooled: one returns to the pool once its
// half has ended, so nothing may read it after that.
type half struct {
	asyncOp
	req  *Request
	view Comm
	// owesPost is set while a send's starter waits for posted.
	owesPost bool
	next     *half // the launch queue's link
}

var halves = sync.Pool{New: func() any { return new(half) }}

// launcher starts one rank's request halves. A go statement on a
// method value allocates a closure per call; start is bound once per
// rank, and each go l.start() runs the oldest queued half, so a half
// starts without one. Every launch queues one half and starts one
// goroutine, so every half runs.
type launcher struct {
	mu         sync.Mutex
	head, tail *half
	start      func()
}

// launch queues h and starts a goroutine that runs a queued half.
func (l *launcher) launch(h *half) {
	l.mu.Lock()
	if l.tail == nil {
		l.head = h
	} else {
		l.tail.next = h
	}
	l.tail = h
	l.mu.Unlock()
	go l.start()
}

// runOldest is start: it dequeues the oldest queued half and runs it.
func (l *launcher) runOldest() {
	l.mu.Lock()
	h := l.head
	l.head = h.next
	if l.head == nil {
		l.tail = nil
	}
	l.mu.Unlock()
	h.next = nil
	h.run()
}

// IsendType starts a non-blocking derived-datatype send.
func (c *Comm) IsendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkTypedSend(count, ty, dest, tag); err != nil {
		return nil, err
	}
	return c.startAsyncSend(asyncOp{kind: opSendTyped, b: b, count: count, ty: ty, peer: dest, tag: tag}), nil
}

// startAsync launches op's background half on its own view of the
// communicator, registered with the quiescence detector as a worker; a
// send's half owes its starter the posted event.
func (c *Comm) startAsync(op asyncOp, send bool) *Request {
	c.reqSeq++
	r := &Request{owner: c, clock: *c.clock, id: c.reqSeq}
	h := halves.Get().(*half)
	h.asyncOp, h.req, h.view, h.owesPost = op, r, *c, send
	h.view.clock = &r.clock
	if send {
		h.fl.isend = h
	}
	c.fabric.WorkerStart()
	c.launch.launch(h)
	return r
}

// run is the background half: the operation itself, then completion.
// done is set before the half leaves the detector's runnable count, so
// a Wait never reads as stuck on a request that has finished; the
// record returns to the pool only after that last use.
func (h *half) run() {
	r, cc := h.req, &h.view
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("mpi: async op panicked: %v", p)
		}
		h.signalPosted() // a send that failed before delivering
		r.done.Set(cc.fabric, cc.endpoint(cc.rank))
		cc.fabric.WorkerDone()
		*h = half{} // the pool keeps no operand or request alive
		halves.Put(h)
	}()
	switch h.kind {
	case opSendContig:
		r.err = cc.sendContig(h.b, h.peer, h.tag, h.fl)
	case opSendTyped:
		r.err = cc.sendTyped(h.b, h.count, h.ty, h.peer, h.tag, h.fl)
	case opSendFused:
		r.err = cc.sendTypedFused(h.b, h.count, h.ty, h.peer, h.tag, h.fl)
	case opRecvContig:
		r.status, r.err = cc.recvContig(h.b, h.peer, h.tag)
	case opRecvTyped:
		r.status, r.err = cc.recvTyped(h.b, h.count, h.ty, h.peer, h.tag)
	}
	if h.leg != "" {
		r.err = legWrap(h.peer, h.leg, r.err)
	}
}

// startAsyncSend starts a send request. To preserve MPI's
// non-overtaking rule the envelope must enter the fabric before the
// start returns, so a later blocking send from the same rank cannot
// overtake it. The protocol layer sets the request's posted flag right
// after it enqueues the envelope (both sendContig and sendTyped deliver
// before they first block), and a half that fails earlier sets it on
// its way out. An abort ends the wait early; Wait then reports it. The
// wait names op's peer and tag, not the record's: the half may have
// ended, and its record been reused, by the time the starter parks.
func (c *Comm) startAsyncSend(op asyncOp) *Request {
	r := c.startAsync(op, true)
	_ = c.await("isend-post", op.peer, op.tag, &r.posted)
	return r
}

// signalPosted releases the starter of a send request, once; a no-op on
// the nil half of a blocking send.
func (h *half) signalPosted() {
	if h != nil && h.owesPost {
		h.owesPost = false
		h.req.posted.Set(h.view.fabric, h.view.endpoint(h.view.rank))
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
	return c.startAsync(asyncOp{kind: opRecvTyped, b: b, count: count, ty: ty, peer: src, tag: tag}, false), nil
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
