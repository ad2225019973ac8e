// Package vclock implements the deterministic virtual-time substrate
// of the simulated cluster.
//
// Every rank goroutine owns a Clock. Local work advances the clock by
// model costs; a message carries the sender's injection-complete
// timestamp, and the receiver folds it in with AdvanceTo; collective
// synchronisation points (barriers, window fences) use a Group, which
// releases all participants at the maximum deposited time once the
// last has arrived. Because each rank's operation sequence is deterministic in the
// benchmark patterns, the resulting timeline is independent of Go
// scheduler interleaving — the property that makes the reproduced
// figures exactly repeatable.
package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a point in virtual time, in nanoseconds from the start of
// the run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// FromSeconds converts a floating-point cost in seconds (the unit the
// performance model computes in) to a Duration, rounding to the
// nearest nanosecond. The explicit conversion rounds the product before
// the addition, so an architecture with fused multiply-add (arm64)
// computes the same Duration as one without.
func FromSeconds(s float64) Duration {
	if s < 0 {
		s = 0
	}
	return Duration(float64(s*1e9) + 0.5)
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
// local time with Arrive; once all n have arrived the epoch is passed
// and everyone resumes at the maximum (plus any synchronisation cost
// the caller adds afterwards). A Group is reusable across consecutive
// epochs, like a classic two-phase barrier. It never blocks: a
// participant waits for Passed in whatever way its runtime waits.
type Group struct {
	mu      sync.Mutex
	n       int
	arrived int
	epoch   atomic.Uint64 // written under mu; Passed reads it without
	maxTime Time          // running max of the in-flight epoch
	lastMax Time          // released value of the completed epoch
}

// NewGroup creates a synchronisation group for n participants.
func NewGroup(n int) *Group {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: group size %d", n))
	}
	return &Group{n: n}
}

// Size returns the number of participants.
func (g *Group) Size() int { return g.n }

// Arrive deposits t in the current epoch and returns the epoch's
// number; last reports that this arrival completed it.
func (g *Group) Arrive(t Time) (epoch uint64, last bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	epoch = g.epoch.Load()
	if t > g.maxTime {
		g.maxTime = t
	}
	g.arrived++
	if g.arrived < g.n {
		return epoch, false
	}
	// The last arrival publishes the epoch maximum and resets the
	// running max for the next epoch. A fast participant can arrive for
	// the next epoch before the others have seen this one pass, which
	// is why the released value lives in lastMax rather than maxTime:
	// the next epoch cannot pass (and overwrite lastMax) until every
	// participant of this one has arrived again.
	g.lastMax = g.maxTime
	g.maxTime = 0
	g.arrived = 0
	g.epoch.Store(epoch + 1)
	return epoch, true
}

// Passed reports whether epoch e has passed and, once it has, the
// maximum time deposited in it. A participant of epoch e gets the same
// value until it arrives again: the next epoch cannot pass, and
// overwrite it, before then. It takes no lock, so any number of
// waiters may poll it.
func (g *Group) Passed(e uint64) (Time, bool) {
	if g.epoch.Load() == e {
		return 0, false
	}
	return g.lastMax, true
}
