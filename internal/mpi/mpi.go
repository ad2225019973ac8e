// Package mpi is a from-scratch, in-process message-passing runtime
// with the MPI semantics the paper's benchmark exercises: blocking and
// non-blocking two-sided sends under eager/rendezvous protocols,
// buffered sends with user-attached buffers, derived-datatype sends
// through chunked internal pack buffers, explicit Pack/Unpack,
// one-sided windows with active-target fences, and the usual
// collectives.
//
// Ranks are goroutines; the interconnect is internal/simnet; costs come
// from internal/perfmodel and internal/memsim and advance per-rank
// virtual clocks (internal/vclock), so measured times reproduce the
// paper's cluster behaviour deterministically. A real-time mode
// measures Go wall time instead, for sanity checks.
//
// The public API mirrors MPI closely enough that the translation is
// mechanical: Comm.Send ↔ MPI_Send, Comm.SendType ↔ MPI_Send with a
// derived datatype argument, Comm.BsendType ↔ MPI_Bsend, Win.Fence ↔
// MPI_Win_fence, and so on.
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/buf"
	"repro/internal/memsim"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// Wildcards, re-exported from the fabric.
const (
	AnySource = simnet.AnySource
	AnyTag    = simnet.AnyTag
)

// Errors of the runtime.
var (
	// ErrTruncate mirrors MPI_ERR_TRUNCATE: message longer than the
	// posted receive buffer.
	ErrTruncate = errors.New("mpi: message truncated")
	// ErrRank mirrors MPI_ERR_RANK.
	ErrRank = errors.New("mpi: rank out of range")
	// ErrTag mirrors MPI_ERR_TAG (user tags must be non-negative).
	ErrTag = errors.New("mpi: invalid tag")
	// ErrBsendBuffer mirrors MPI_ERR_BUFFER: no attached buffer or not
	// enough space left in it.
	ErrBsendBuffer = errors.New("mpi: buffered send has no buffer space")
	// ErrWin reports misuse of a one-sided window.
	ErrWin = errors.New("mpi: window misuse")
	// ErrCount reports a negative element count.
	ErrCount = errors.New("mpi: invalid count")
	// ErrDeadlock is returned by Run when the wall-clock watchdog
	// fires before all ranks finish.
	ErrDeadlock = errors.New("mpi: ranks did not finish before the watchdog deadline")
)

// Options configures a Run.
type Options struct {
	// Profile selects the simulated installation; nil means
	// perfmodel.Generic().
	Profile *perfmodel.Profile
	// RealTime switches Wtime to wall-clock measurement of the Go
	// process instead of the virtual clock. Virtual costs are still
	// tracked; they simply stop being the reported time.
	RealTime bool
	// ColdCaches disables cache-warmth tracking so every memory read
	// is priced at DRAM bandwidth.
	ColdCaches bool
	// WallLimit bounds the real duration of the whole Run as a
	// deadlock watchdog; 0 means no limit.
	WallLimit time.Duration
	// Faults arms a deterministic fault-injection plan on the fabric:
	// envelopes and rendezvous payload transfers are dropped, damaged,
	// duplicated, reordered or delayed per the plan, and the runtime's
	// checksum/ACK/retry machinery recovers (or surfaces typed errors
	// once the retry budget runs out). nil runs a clean fabric with
	// zero checksum or bookkeeping overhead.
	Faults *simnet.FaultPlan
	// Retry bounds the recovery machinery under faults; zero-value
	// fields take DefaultRetryPolicy.
	Retry RetryPolicy
	// DetectDeadlock runs the quiescence detector even on a clean
	// fabric: when no rank goroutine is runnable and no blocked
	// operation can complete, the run aborts with a structured
	// DeadlockError naming the stuck endpoints instead of hanging
	// until WallLimit. Fault-injected runs always detect.
	DetectDeadlock bool
}

// Run starts size rank goroutines connected by one fabric and waits
// for all of them. Each rank receives its own Comm. The first
// non-nil error (or recovered panic) per rank is collected into the
// returned error.
func Run(size int, opts Options, body func(*Comm) error) error {
	if size <= 0 {
		return fmt.Errorf("%w: world size %d", ErrRank, size)
	}
	prof := opts.Profile
	if prof == nil {
		prof = perfmodel.Generic()
	}
	if err := prof.Validate(); err != nil {
		return err
	}
	fabric := simnet.New(size)
	faultsOn := opts.Faults != nil
	if faultsOn {
		fabric.SetFaultPlan(opts.Faults)
	}
	if faultsOn || opts.DetectDeadlock {
		fabric.EnableTracking()
		// Register every rank before any goroutine runs, so the
		// detector can never observe a half-started world as quiescent.
		for r := 0; r < size; r++ {
			fabric.WorkerStart()
		}
	}
	retry := opts.Retry.normalized()
	var stopDetector func()
	if fabric.Tracking() {
		stopDetector = runDetector(fabric)
		defer stopDetector()
	}
	start := time.Now()
	// The world's node grouping is the same for every rank: built once
	// per Run (nil on flat machines) and shared read-only by all cores.
	nodes := groupByNode(prof, size, nil)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer fabric.WorkerDone()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, p, debug.Stack())
				}
			}()
			// One allocation holds the rank's world view: the shared
			// core, the Comm the body runs on, and the rank's clock.
			w := &struct {
				core  commCore
				comm  Comm
				clock vclock.Clock
			}{core: commCore{
				rank:       rank, // ctx 0, nil members: the world's identity mapping
				size:       size,
				fabric:     fabric,
				prof:       prof,
				cache:      memsim.NewState(&prof.Mem),
				realTime:   opts.RealTime,
				start:      start,
				internal:   buf.Alloc(1), // identity for MPI-internal buffer warmth
				faults:     faultsOn,
				retry:      retry,
				nodes:      nodes,
				nodesBuilt: true,
			}}
			w.core.cache.SetDisabled(opts.ColdCaches)
			w.comm = Comm{commCore: &w.core, clock: &w.clock}
			errs[rank] = body(&w.comm)
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if opts.WallLimit > 0 {
		select {
		case <-done:
		case <-time.After(opts.WallLimit):
			if fabric.Tracking() {
				// Tear the run down so blocked ranks unwind with the
				// typed error instead of leaking goroutines.
				fabric.Abort(fmt.Errorf("%w (after %v)", ErrDeadlock, opts.WallLimit))
				<-done
			} else {
				return fmt.Errorf("%w (after %v)", ErrDeadlock, opts.WallLimit)
			}
		}
	} else {
		<-done
	}
	return errors.Join(errs...)
}

// commCore is what every view of one rank's communicator shares: its
// identity (rank, size, context, membership), the run's fabric, profile
// and fault configuration, the rank's cache model, and the memoised
// node grouping. It is immutable once the communicator is in use, apart
// from the lazily built grouping, which only the owning rank touches.
type commCore struct {
	rank    int   // rank within this communicator
	size    int   // communicator size
	ctx     int   // communicator context id (0 = world)
	members []int // local rank -> fabric endpoint; nil = identity

	fabric   *simnet.Fabric
	prof     *perfmodel.Profile
	cache    *memsim.State
	realTime bool
	start    time.Time

	internal buf.Block // region identity for MPI-internal staging

	// fault-recovery configuration (see fault.go).
	faults bool        // a fault plan is armed on the fabric
	retry  RetryPolicy // normalized retransmission budget and backoff

	// nodes is the communicator's node grouping (see twoLevel), valid
	// once nodesBuilt: the world's is built by Run and shared by every
	// rank, a Split child's on first use.
	nodes      *nodeGroups
	nodesBuilt bool
}

// Comm is one rank's view of a communicator. All methods must be
// called from the rank's own goroutine (like an MPI process); a Comm
// is not safe for concurrent use.
//
// A rank has several views of one communicator: the one its body runs
// on, and one inside every outstanding Request, on which the request's
// background half executes. All of them share the commCore — and
// through it the fabric and the rank's (internally locked) cache
// model. Each view owns the clock it advances: the rank's own, or the
// half's private one that Wait folds back. The remaining fields belong
// to the rank's own view and are copied by value into a half, so
// nothing a half does to them reaches the owner.
type Comm struct {
	*commCore

	clock *vclock.Clock

	attach *bsendPool // Bsend attached buffer, nil when detached

	reqSeq int // request numbering for diagnostics
	winSeq int // window numbering; identical across ranks (collective)

	// posted is the rank's reusable delivery signal: the half of a
	// non-blocking send puts one token in once its envelope has entered the fabric
	// (or it failed before that), and the starter takes it before
	// returning, so the channel is empty between calls. Made on the
	// first non-blocking send.
	posted chan struct{}
}

// groupSync deposits the local clock at the communicator's
// synchronisation group and resumes at the group maximum. Under
// tracking the wait is registered with the quiescence detector: a
// barrier some rank never reaches is a deadlock like any other.
func (c *Comm) groupSync() {
	g := c.fabric.GroupFor(c.ctx, c.size)
	if !c.fabric.Tracking() {
		c.clock.AdvanceTo(g.Sync(c.clock.Now()))
		return
	}
	e := g.Epoch()
	release := c.fabric.EnterBlocked(simnet.BlockInfo{
		Rank: c.endpoint(c.rank), Op: "barrier", Ctx: c.ctx,
		Src: AnySource, Tag: AnyTag, Since: c.clock.Now(),
	}, func() bool { return g.Epoch() != e })
	t := g.Sync(c.clock.Now())
	release()
	c.clock.AdvanceTo(t)
}

// Rank returns the calling process's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// endpoint maps a communicator rank to its fabric endpoint.
func (c *Comm) endpoint(rank int) int {
	if c.members == nil {
		return rank
	}
	return c.members[rank]
}

// Wtime returns the elapsed time in seconds: virtual time in model
// mode (the default), wall time in real-time mode — the exact analogue
// of MPI_Wtime in each.
func (c *Comm) Wtime() float64 {
	if c.realTime {
		return time.Since(c.start).Seconds()
	}
	return c.clock.Now().Seconds()
}

// Cache exposes the rank's cache-warmth state; the harness flushes it
// between ping-pongs the way the paper rewrites a 50 M array.
func (c *Comm) Cache() *memsim.State { return c.cache }

// Profile returns the installation profile of the run.
func (c *Comm) Profile() *perfmodel.Profile { return c.prof }

// Charge advances the rank's virtual clock by a user-space cost in
// seconds. The benchmark schemes charge their own gather loops and
// per-element pack calls through this; MPI-internal costs are charged
// by the runtime itself.
func (c *Comm) Charge(seconds float64) {
	c.clock.Advance(vclock.FromSeconds(seconds))
}

// Counters returns this rank's fabric traffic counters.
func (c *Comm) Counters() simnet.Counters {
	return c.fabric.CountersFor(c.endpoint(c.rank))
}

// MatchStats returns the fabric-wide matching attribution snapshot:
// live shard queues and the fast-path vs wildcard split of every
// envelope match so far. The fabric is fresh per Run, so a snapshot at
// the end of a run attributes that run's whole traffic.
func (c *Comm) MatchStats() simnet.MatchStats {
	return c.fabric.MatchStatsSnapshot()
}

// checkRank validates a peer rank.
func (c *Comm) checkRank(r int) error {
	if r < 0 || r >= c.size {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrRank, r, c.size)
	}
	return nil
}

// checkTag validates a user tag (internal operations use negative
// tags, which user code must not).
func checkTag(tag int) error {
	if tag < 0 {
		return fmt.Errorf("%w: %d", ErrTag, tag)
	}
	return nil
}

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source int
	Tag    int
	// Count is the received byte count.
	Count int64
}
