package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// waitTimeoutRealFallback bounds the real time a deadline-bounded Wait
// spends before declaring the timeout even when the simulated world
// never goes quiescent (ranks spinning in compute, external
// injections). The virtual clock still advances by the virtual
// deadline, so measured results stay deterministic.
const waitTimeoutRealFallback = 250 * time.Millisecond

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
// it with Wait or poll with Test.
//
// The request is the operation's only allocation besides its goroutine:
// it holds the operands, the view of the communicator the background
// half executes on (the owner's core with this request's own clock and
// cancel hook) and the completion latch. It is never pooled: the caller
// keeps the pointer past completion, and Wait or Test on a finished
// request must keep answering with a RequestStateError that carries the
// original result, which a recycled object could not.
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
	// owesPost is set while a send's starter waits for the delivery
	// token on the rank's posted channel.
	owesPost bool

	// completed flips, and wg releases, when the background half has
	// stored status and err.
	completed atomic.Bool
	wg        sync.WaitGroup

	status   Status
	err      error
	finished bool
	id       int

	// cancel, armed on tracked fabrics, tears the async half's blocking
	// fabric waits down when a deadline fires.
	cancel chan struct{}
	// deadline, when positive, bounds every Wait on this request (see
	// SetDeadline).
	deadline vclock.Duration
}

// Isend starts a non-blocking contiguous send, like MPI_Isend. The
// message enters the network in program order (the envelope is
// delivered before Isend returns), so pairwise ordering guarantees
// hold; only the rendezvous completion runs in the background.
func (c *Comm) Isend(b buf.Block, dest, tag int) (*Request, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	return c.startAsyncSend(&Request{kind: opSendContig, b: b, peer: dest, tag: tag}), nil
}

// IsendType starts a non-blocking derived-datatype send.
func (c *Comm) IsendType(b buf.Block, count int, ty *datatype.Type, dest, tag int) (*Request, error) {
	if err := c.checkP2P(dest, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return c.startAsyncSend(&Request{kind: opSendTyped, b: b, count: count, ty: ty, peer: dest, tag: tag}), nil
}

// startAsync launches r's background half on its own view of the
// communicator. On tracked fabrics the half is registered with the
// quiescence detector as a worker, and the cancel channel that a
// deadline closes is threaded into its blocking fabric waits.
func (c *Comm) startAsync(r *Request) *Request {
	c.reqSeq++
	r.owner, r.id = c, c.reqSeq
	r.clock = *c.clock
	r.half = *c
	r.half.clock = &r.clock
	if c.fabric.Tracking() {
		r.cancel = make(chan struct{})
		r.half.cancelCh = r.cancel
		c.fabric.WorkerStart()
	}
	r.wg.Add(1)
	go r.run()
	return r
}

// run is the background half: the operation itself, then completion.
func (r *Request) run() {
	cc := &r.half
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("mpi: async op panicked: %v", p)
		}
		r.signalPosted() // a send that failed before delivering
		if cc.cancelCh != nil {
			cc.fabric.WorkerDone()
		}
		r.completed.Store(true)
		r.wg.Done()
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
// non-overtaking rule the envelope must enter the fabric before Isend
// returns, so a later blocking send from the same rank cannot overtake
// it. The protocol layer puts a token on the rank's posted channel
// right after it enqueues the envelope (both sendContig and sendTyped
// deliver before they first block), and a half that fails earlier puts
// it on its way out; startAsyncSend takes that one token, so the
// channel is empty again when it returns.
func (c *Comm) startAsyncSend(r *Request) *Request {
	if c.posted == nil {
		c.posted = make(chan struct{}, 1)
	}
	r.owesPost = true
	r.fl.isend = r
	c.startAsync(r)
	<-c.posted
	return r
}

// signalPosted releases the starter of a send request, once; a no-op on
// the nil request of a blocking send.
func (r *Request) signalPosted() {
	if r != nil && r.owesPost {
		r.owesPost = false
		r.half.posted <- struct{}{}
	}
}

// Irecv starts a non-blocking receive, like MPI_Irecv: the receive
// posts when the background half first touches the fabric. When several
// Irecvs with overlapping patterns are outstanding, their matching
// order is unspecified (a documented divergence from MPI's
// posted-receive queue order; the benchmark patterns never rely on
// it).
func (c *Comm) Irecv(b buf.Block, src, tag int) (*Request, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return nil, err
	}
	return c.startAsync(&Request{kind: opRecvContig, b: b, peer: src, tag: tag}), nil
}

// IrecvType starts a non-blocking derived-datatype receive, like
// MPI_Irecv with a non-contiguous type: the payload is scattered into
// b's layout when the matching send completes, and a rendezvous sendv
// sender is offered the layout for the fused one-pass scatter exactly
// as RecvType offers it. The matching-order caveat of Irecv applies.
func (c *Comm) IrecvType(b buf.Block, count int, ty *datatype.Type, src, tag int) (*Request, error) {
	if err := c.checkRecvArgs(src, tag); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, errNegativeCount(count)
	}
	return c.startAsync(&Request{kind: opRecvTyped, b: b, count: count, ty: ty, peer: src, tag: tag}), nil
}

// SetDeadline bounds every subsequent Wait on this request by d of
// virtual time: instead of blocking forever on an operation that can
// no longer complete, Wait returns a typed TimeoutError once the
// simulation proves no progress is possible (or the real-time fallback
// elapses), and charges exactly d to the caller's virtual clock.
// Non-positive d clears the bound. Tearing the underlying operation
// down on timeout requires a tracked fabric (Options.Faults or
// Options.DetectDeadlock); untracked runs only detach from it.
func (r *Request) SetDeadline(d vclock.Duration) { r.deadline = d }

// misuse builds the typed error of an operation against an
// already-completed request: a RequestStateError matching
// ErrRequestInactive that still carries the error the request
// originally finished with, so a double Wait after a fabric abort
// does not swallow the abort reason.
func (r *Request) misuse(op string) error {
	state := "finished"
	if r.err != nil && chanClosed(r.owner.fabric.AbortChan()) {
		state = "aborted"
	}
	return &RequestStateError{Op: op, Rank: r.owner.rank, ID: r.id, State: state, Cause: ErrRequestInactive, Prior: r.err}
}

// Wait blocks until the operation completes and folds its virtual time
// into the caller, like MPI_Wait. Waiting twice on the same request is
// request misuse and returns a typed RequestStateError matching
// ErrRequestInactive. When a deadline is set (SetDeadline) the wait is
// bounded by it.
func (r *Request) Wait() (Status, error) {
	if r.finished {
		return Status{}, r.misuse("wait")
	}
	if r.deadline > 0 {
		return r.WaitTimeout(r.deadline)
	}
	r.await()
	return r.finish()
}

// await blocks until the background half finishes. On tracked fabrics
// the wait is registered with the quiescence detector; an abort tears
// the background half down too, and its error (the abort reason) is
// what this Wait then reports.
func (r *Request) await() {
	f := r.owner.fabric
	if !f.Tracking() {
		r.wg.Wait()
		return
	}
	release := f.EnterBlocked(r.owner.blockInfo("wait", AnySource, AnyTag), r.completed.Load)
	r.wg.Wait()
	release()
}

// doneChan bridges the completion latch to a channel for the selects
// of the deadline-bounded waits.
func (r *Request) doneChan() <-chan struct{} {
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	return done
}

// finish folds the background half's virtual time into the owner and
// retires the request.
func (r *Request) finish() (Status, error) {
	r.owner.clock.AdvanceTo(r.clock.Now())
	r.finished = true
	return r.status, r.err
}

// WaitTimeout is Wait bounded by d of virtual time. If the operation
// cannot complete — the simulated world is quiescent with this wait
// pending, or the real-time fallback elapses — the request is torn
// down, the caller's clock advances by exactly d, and a typed
// TimeoutError is returned. An operation that completes (or fails) in
// the teardown race reports its own result instead.
func (r *Request) WaitTimeout(d vclock.Duration) (Status, error) {
	if r.finished {
		return Status{}, r.misuse("wait")
	}
	if d <= 0 {
		r.await()
		return r.finish()
	}
	f := r.owner.fabric
	if !f.Tracking() {
		// No cancellation machinery without tracking: bound by real time
		// and detach. The background goroutine unwinds whenever its peer
		// acts (or the run ends).
		select {
		case <-r.doneChan():
			return r.finish()
		case <-time.After(waitTimeoutRealFallback):
			r.finished = true
			r.owner.clock.Advance(d)
			return Status{}, &TimeoutError{Op: "wait", Rank: r.owner.rank, Deadline: d}
		}
	}
	info := r.owner.blockInfo("wait-timeout", AnySource, AnyTag)
	info.Deadline = true
	release := f.EnterBlocked(info, r.completed.Load)
	done := r.doneChan()
	ticker := time.NewTicker(200 * time.Microsecond)
	fallback := time.NewTimer(waitTimeoutRealFallback)
	defer ticker.Stop()
	defer fallback.Stop()
	timedOut := false
loop:
	for {
		select {
		case <-done:
			break loop
		case <-f.AbortChan():
			<-done
			break loop
		case <-ticker.C:
			// Deterministic verdict: nothing in the simulation is
			// runnable and no blocked wait can complete, so this request
			// can never finish — its virtual deadline has passed.
			if _, anyDeadline, q := f.Quiescent(); q && anyDeadline {
				timedOut = true
				break loop
			}
		case <-fallback.C:
			timedOut = true
			break loop
		}
	}
	release()
	if !timedOut {
		return r.finish()
	}
	// Tear the background half down: its tracked fabric waits observe
	// the closed cancel channel and unwind with ErrCanceled.
	if r.cancel != nil {
		close(r.cancel)
		r.cancel = nil
	}
	f.KickAll()
	<-done
	if r.err == nil || !errors.Is(r.err, simnet.ErrCanceled) {
		// Completed (or failed for its own reason) in the race with the
		// teardown: report that instead of the timeout.
		return r.finish()
	}
	r.finished = true
	r.owner.clock.Advance(d)
	return Status{}, &TimeoutError{Op: "wait", Rank: r.owner.rank, Deadline: d}
}

// Test reports whether the operation has completed without blocking,
// like MPI_Test; when it returns true the time is folded exactly as
// Wait would. Testing an already-completed request is request misuse,
// like double Wait.
func (r *Request) Test() (bool, Status, error) {
	if r.finished {
		return true, Status{}, r.misuse("test")
	}
	if !r.completed.Load() {
		return false, Status{}, nil
	}
	st, err := r.finish()
	return true, st, err
}

// WaitAll completes a set of requests, returning the first error, like
// MPI_Waitall.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
