// Package vclock implements the deterministic virtual-time substrate
// of the simulated cluster.
//
// Every rank goroutine owns a Clock. Local work advances the clock by
// model costs; a message carries the sender's injection-complete
// timestamp, and the receiver folds it in with AdvanceTo; collective
// synchronisation points (barriers, window fences) use a Group, which
// blocks all participants and releases them at the maximum deposited
// time. Because each rank's operation sequence is deterministic in the
// benchmark patterns, the resulting timeline is independent of Go
// scheduler interleaving — the property that makes the reproduced
// figures exactly repeatable.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds from the start of
// the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// FromSeconds converts a floating-point cost in seconds (the unit the
// performance model computes in) to a Duration, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Duration {
	if s < 0 {
		s = 0
	}
	return Duration(s*1e9 + 0.5)
}

// Seconds converts a Time to float64 seconds since run start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the time with the resolution the paper reports
// (microseconds and up).
func (t Time) String() string {
	return time.Duration(t).String()
}

// Clock is one rank's virtual clock. It is owned by a single goroutine
// and is not safe for concurrent use; cross-rank interaction happens
// via message timestamps and Groups, never by sharing a Clock.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative durations are
// clamped to zero so model rounding can never move time backwards.
func (c *Clock) Advance(d Duration) Time {
	if d > 0 {
		c.now += Time(d)
	}
	return c.now
}

// AdvanceTo moves the clock to t if t is later than now, returning the
// new current time. This is the "receive" rule: local time becomes the
// maximum of local progress and message arrival.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Group synchronises n participants in virtual time: each deposits its
// local time and blocks; when all n have arrived everyone resumes at
// the maximum time (plus any synchronisation cost the caller adds
// afterwards). A Group is reusable across consecutive epochs, like a
// classic two-phase barrier.
type Group struct {
	mu          sync.Mutex
	cond        *sync.Cond
	n           int
	arrived     int
	epoch       uint64
	maxTime     Time // running max of the in-flight epoch
	lastMax     Time // released value of the completed epoch
	interrupted bool // Interrupt called: no epoch can complete any more
}

// NewGroup creates a synchronisation group for n participants.
func NewGroup(n int) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: group size %d", n))
	}
	g := &Group{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Size returns the number of participants.
func (g *Group) Size() int { return g.n }

// Sync deposits t and blocks until all participants of the current
// epoch have deposited, then returns the maximum deposited time. All
// participants of one epoch receive the same value.
func (g *Group) Sync(t Time) Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.interrupted {
		// A torn-down run: nobody else may ever arrive, so blocking
		// would hang the caller forever. Resume at the deposited time;
		// the fabric abort error surfaces through the next fabric
		// operation.
		return t
	}
	epoch := g.epoch
	if t > g.maxTime {
		g.maxTime = t
	}
	g.arrived++
	if g.arrived == g.n {
		// Last arrival publishes the epoch maximum, resets the running
		// max for the next epoch, and releases the waiters. A fast
		// participant can re-enter Sync for the next epoch before the
		// waiters wake, which is why the released value lives in
		// lastMax rather than maxTime: the next epoch cannot complete
		// (and overwrite lastMax) until every current waiter has left.
		g.lastMax = g.maxTime
		g.maxTime = 0
		g.arrived = 0
		g.epoch++
		g.cond.Broadcast()
		return g.lastMax
	}
	for g.epoch == epoch && !g.interrupted {
		g.cond.Wait()
	}
	if g.epoch == epoch {
		// Woken by Interrupt with the epoch still open: resume at the
		// best time known so far rather than a completed maximum.
		if g.maxTime > t {
			return g.maxTime
		}
		return t
	}
	return g.lastMax
}

// Epoch returns the current epoch number. A blocked Sync participant
// of epoch e is released exactly when the epoch advances past e, so
// "Epoch() != e" is the readiness predicate the deadlock detector
// checks for barrier waiters.
func (g *Group) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Interrupt permanently releases every current and future Sync caller
// without completing their epoch — the teardown path when the fabric
// aborts a deadlocked or failed run. Participants resume at their own
// deposited time; the abort reason travels through the fabric, not the
// group.
func (g *Group) Interrupt() {
	g.mu.Lock()
	g.interrupted = true
	g.mu.Unlock()
	g.cond.Broadcast()
}
