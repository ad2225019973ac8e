package simnet

import (
	"sync"
	"sync/atomic"
)

// This file is the fabric's one blocking primitive. Every wait of the
// runtime — a receive, a rendezvous notice, a request's completion, a
// barrier, a buffered-send drain — parks its goroutine at the mailbox
// of the endpoint it runs for, until the event it waits for is ready or
// the fabric aborts. A poster publishes its event first and wakes the
// waiter's endpoint second; the wake tests each wait parked there and
// releases only those whose event is ready, so the several waits of one
// rank (its body and its request halves) do not wake each other. A
// waiter tests readiness without consuming the event and deregisters
// from the quiescence detector before it consumes, so the detector never
// sees a registered wait whose event has come and gone.

// Waitable is the event an Await waits for. Ready reports, without
// consuming anything, whether it has happened; the quiescence detector
// calls it from its own goroutine, so it must be safe for concurrent
// use.
type Waitable interface {
	Ready() bool
}

// Flag is a one-shot event: Set publishes it, and every Await on the
// flag completes from then on.
type Flag struct {
	set atomic.Bool
}

// Ready reports whether the flag is set.
func (fl *Flag) Ready() bool { return fl.set.Load() }

// Set publishes the event and wakes endpoint ep of f, where its waiter
// parks.
func (fl *Flag) Set(f *Fabric, ep int) {
	fl.set.Store(true)
	f.boxes[ep].wake(nil, false)
}

// Slot is a one-deep channel for the notices of one side of a
// rendezvous handshake. Post and Take alternate strictly: a poster
// posts again only after the waiter has taken the previous notice and
// answered it, so one slot carries every attempt of a transfer.
type Slot[T any] struct {
	Flag
	v T
}

// Post publishes x and wakes endpoint ep of f, where the taker parks.
func (s *Slot[T]) Post(f *Fabric, ep int, x T) {
	s.v = x
	s.Set(f, ep)
}

// Take consumes the posted notice; call it once an Await on the slot
// returned nil.
func (s *Slot[T]) Take() T {
	x := s.v
	s.set.Store(false)
	return x
}

// Handshake is the rendezvous protocol of one envelope: the receiver's
// match, the sender's completion notice of each attempt, and, when the
// envelope is Acked, the receiver's verdict on each attempt (nil
// accepts, non-nil NACKs and asks for a retransmission).
type Handshake struct {
	Match Slot[RdvMatch]
	Done  Slot[RdvDone]
	Ack   Slot[error]
}

// Await parks the caller at endpoint info.Rank until w is ready, and
// returns an error wrapping ErrAborted if the fabric aborts first. An
// event that has happened wins over an abort. While parked, the wait is
// registered with the quiescence detector as info when tracking is
// armed; it is deregistered before Await returns, so the caller
// consumes the event afterwards.
func (f *Fabric) Await(info BlockInfo, w Waitable) error {
	if w.Ready() {
		return nil
	}
	return f.await(info, w, 0)
}

// await is Await past its first readiness test, and a receive's wait
// when w is nil: for an envelope matching info's (Ctx, Src, Tag) at
// info.Rank's mailbox, put after the mailbox's put count read puts. A
// receive takes the envelope after await returns, and waits again if a
// concurrent receive took it first.
func (f *Fabric) await(info BlockInfo, w Waitable, puts int64) error {
	b := f.boxes[info.Rank]
	tok := 0
	if f.Tracking() {
		tok = f.enterBlocked(info, w)
	}
	err := b.park(f, info, w, puts)
	if tok != 0 {
		f.leaveBlocked(tok)
	}
	return err
}

// ready evaluates a registered wait's readiness for the detector: a
// receive (nil w) is ready while a matching envelope is queued.
func (b *mailbox) ready(info BlockInfo, w Waitable) bool {
	if w == nil {
		return b.peek(info.Ctx, info.Src, info.Tag) != nil
	}
	return w.Ready()
}

// Wake releases every wait parked at endpoint ep whose event is ready;
// a poster whose event several endpoints wait for calls it once it has
// published the event.
func (f *Fabric) Wake(ep int) { f.boxes[ep].wake(nil, false) }

// parker is one parked wait: what it waits for, the one-slot channel
// it sleeps on, which its waker sends on, and whether an abort
// released it. Parkers are pooled and each makes its channel once, so
// a wait allocates nothing.
type parker struct {
	info    BlockInfo
	w       Waitable
	sleep   chan struct{}
	aborted bool
	next    *parker
}

var parkers = sync.Pool{New: func() any { return &parker{sleep: make(chan struct{}, 1)} }}

// park blocks until a wake releases the wait or the fabric aborts,
// unless one of the two has already happened (see await for puts). The
// waiter counts itself parked before its last test and a poster
// publishes before it reads the count, so one of them always sees the
// other.
func (b *mailbox) park(f *Fabric, info BlockInfo, w Waitable, puts int64) error {
	b.waitMu.Lock()
	b.nparked.Add(1)
	ready := w == nil && b.puts.Load() != puts || w != nil && w.Ready()
	if err := checkLive(f); ready || err != nil {
		b.nparked.Add(-1)
		b.waitMu.Unlock()
		if ready {
			return nil
		}
		return err
	}
	p := parkers.Get().(*parker)
	p.info, p.w, p.aborted, p.next = info, w, false, b.parked
	b.parked = p
	b.waitMu.Unlock()
	<-p.sleep
	aborted := p.aborted
	p.w = nil
	parkers.Put(p)
	if aborted && (w == nil || !w.Ready()) {
		return checkLive(f)
	}
	return nil
}

// wake releases parked waits: with m, the receives m matches (an
// arriving envelope completes nothing else); with abort, every wait;
// otherwise the other waits whose event is ready. It takes the lock
// only when a wait is parked, so an uncontended post costs one atomic
// load.
func (b *mailbox) wake(m *Message, abort bool) {
	if b.nparked.Load() == 0 {
		return
	}
	var released *parker
	b.waitMu.Lock()
	for pp := &b.parked; *pp != nil; {
		p := *pp
		var release bool
		switch {
		case abort:
			release = true
		case m != nil:
			release = p.w == nil && m.Ctx == p.info.Ctx &&
				(p.info.Src == AnySource || m.Src == p.info.Src) && (p.info.Tag == AnyTag || m.Tag == p.info.Tag)
		default:
			release = p.w != nil && p.w.Ready()
		}
		if !release {
			pp = &p.next
			continue
		}
		*pp = p.next
		b.nparked.Add(-1)
		p.aborted, p.next, released = abort, released, p
	}
	b.waitMu.Unlock()
	// Released outside the lock: a woken waiter may post at once.
	for released != nil {
		p := released
		released = p.next
		p.sleep <- struct{}{}
	}
}
