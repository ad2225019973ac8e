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
// paper's cluster behaviour deterministically.
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
	// ColdCaches disables cache-warmth tracking so every memory read
	// is priced at DRAM bandwidth.
	ColdCaches bool
	// WallLimit bounds the real duration of the whole Run as a
	// deadlock watchdog; 0 means no limit. On expiry the fabric is
	// aborted, so waiting ranks unwind with an error, and Run returns
	// once they have.
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
	// ends, set only by Measure, receives each rank's virtual seconds
	// when its body returned.
	ends []float64
}

// Run starts size rank goroutines connected by one fabric and waits
// for all of them. Each rank receives its own Comm. The first
// non-nil error (or recovered panic) per rank is collected into the
// returned error; a run whose fabric was aborted returns the abort
// even when every rank body returned nil.
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
		defer runDetector(fabric)()
	}
	retry := opts.Retry.normalized()
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
			// core, the Comm the body runs on, the rank's clock and
			// the launcher of its request halves.
			w := &struct {
				core   commCore
				comm   Comm
				clock  vclock.Clock
				launch launcher
			}{core: commCore{
				rank:       rank, // ctx 0, nil members: the world's identity mapping
				size:       size,
				fabric:     fabric,
				prof:       prof,
				cache:      memsim.NewState(&prof.Mem),
				internal:   buf.Alloc(1), // identity for MPI-internal buffer warmth
				faults:     faultsOn,
				retry:      retry,
				nodes:      nodes,
				nodesBuilt: true,
			}}
			w.core.cache.SetDisabled(opts.ColdCaches)
			w.launch.start = w.launch.runOldest
			w.core.launch = &w.launch
			w.comm = Comm{commCore: &w.core, clock: &w.clock}
			errs[rank] = body(&w.comm)
			if opts.ends != nil {
				opts.ends[rank] = w.clock.Now().Seconds()
			}
		}(r)
	}
	// The join is the one wait of the package outside await: it waits
	// for the rank goroutines themselves, not for a fabric event.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if opts.WallLimit > 0 {
		select {
		case <-done:
		case <-time.After(opts.WallLimit):
			// Tear the run down: every wait aborts, so the waiting ranks
			// unwind with the typed error and leave no goroutine behind.
			err := fmt.Errorf("%w (after %v)", ErrDeadlock, opts.WallLimit)
			fabric.Abort(err)
			<-done
			return errors.Join(append([]error{err}, errs...)...)
		}
	} else {
		<-done
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// A rank unwound from a barrier by the abort reports no error.
	return fabric.AbortErr()
}

// commCore is what every view of one rank's communicator shares: its
// identity (rank, size, context, membership), the run's fabric, profile
// and fault configuration, the rank's cache model and request
// launcher, and the memoised node grouping. It is immutable once the
// communicator is in use, apart from the lazily built grouping, which
// only the owning rank touches.
type commCore struct {
	rank    int   // rank within this communicator
	size    int   // communicator size
	ctx     int   // communicator context id (0 = world)
	members []int // local rank -> fabric endpoint; nil = identity

	fabric *simnet.Fabric
	prof   *perfmodel.Profile
	cache  *memsim.State
	launch *launcher // starts the rank's request halves

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
// on, and one in the half record of every outstanding Request, on
// which the request's background half executes. All of them share the
// commCore — and through it the fabric and the rank's (internally
// locked) cache model and launcher. Each view owns the clock it advances: the rank's own, or the
// half's private one that Wait folds back. The remaining fields belong
// to the rank's own view and are copied by value into a half, so
// nothing a half does to them reaches the owner.
type Comm struct {
	*commCore

	clock *vclock.Clock

	attach *bsendPool // Bsend attached buffer, nil when detached

	reqSeq int // request numbering for diagnostics
	winSeq int // window numbering; identical across ranks (collective)

	// barrier is the rank's barrier wait: the group and the epoch it
	// arrived for (see groupSync).
	barrier epochWait
}

// epochWait is the event of a barrier: the epoch a rank arrived for has
// passed.
type epochWait struct {
	g     *vclock.Group
	epoch uint64
}

// Ready reports whether the epoch has passed.
func (w *epochWait) Ready() bool {
	_, ok := w.g.Passed(w.epoch)
	return ok
}

// groupSync deposits the local clock at the communicator's
// synchronisation group and resumes at the group maximum. The last
// arrival wakes every member; a barrier some rank never reaches is a
// deadlock like any other, and an abort resumes the rank at its own
// time (the abort surfaces at its next fabric operation).
func (c *Comm) groupSync() {
	g := c.fabric.GroupFor(c.ctx, c.size)
	e, last := g.Arrive(c.clock.Now())
	if last {
		for r := 0; r < c.size; r++ {
			c.fabric.Wake(c.endpoint(r))
		}
	}
	c.barrier = epochWait{g, e}
	if c.await("barrier", AnySource, AnyTag, &c.barrier) != nil {
		return
	}
	t, _ := g.Passed(e)
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

// Wtime returns the rank's elapsed virtual time in seconds, the
// analogue of MPI_Wtime on the simulated machine.
func (c *Comm) Wtime() float64 { return c.clock.Now().Seconds() }

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
