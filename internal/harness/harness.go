// Package harness implements the paper's measurement protocol (§3.2):
// ping-pongs between two ranks where the ping is the non-contiguous
// send and the pong a zero-byte reply (or the window fences, for the
// one-sided scheme); every ping-pong timed individually with Wtime;
// measurements more than one standard deviation from the average
// dismissed; buffers allocated, aligned and zeroed outside the timing
// loop; caches flushed between ping-pongs by rewriting a large array.
package harness

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/stats"
)

// Options configures a measurement run.
type Options struct {
	// Reps is the ping-pong count per size; the paper uses 20.
	Reps int
	// FlushCache rewrites a 50 M array between ping-pongs (§3.2); the
	// §4.6 ablation turns it off.
	FlushCache bool
	// OutlierSigma is the dismissal threshold in standard deviations;
	// the paper uses 1. Zero disables dismissal.
	OutlierSigma float64
	// MaxRealBytes caps materialised payloads: workloads above it run
	// with virtual (length-only) buffers so the 10⁹-byte end of the
	// sweep stays affordable: a virtual message costs O(1) on the wall
	// clock, its chunk loops attributed in closed form, whatever its
	// size. Zero means the default of 16 MiB.
	MaxRealBytes int64
	// Verify checks received payloads byte-for-byte after the last
	// ping-pong (real payloads only).
	Verify bool
	// RealTime measures Go wall time instead of virtual time.
	RealTime bool
	// ColdCaches disables warmth tracking entirely (stronger than
	// FlushCache: even one ping-pong sees no reuse).
	ColdCaches bool
	// WallLimit is the per-Run deadlock watchdog; zero means 2 min.
	WallLimit time.Duration
	// EagerLimitOverride, when non-zero, replaces the profile's eager
	// limit — the §4.5 "set the eager limit over the maximum message
	// size" experiment.
	EagerLimitOverride int64
}

// withDefaults fills the zero values.
func (o Options) withDefaults() Options {
	if o.Reps == 0 {
		o.Reps = 20
	}
	if o.MaxRealBytes == 0 {
		o.MaxRealBytes = 16 << 20
	}
	if o.WallLimit == 0 {
		o.WallLimit = 2 * time.Minute
	}
	return o
}

// DefaultOptions returns the paper's measurement protocol: 20 reps,
// cache flushing on, 1-σ dismissal, verification on.
func DefaultOptions() Options {
	return Options{
		Reps:         20,
		FlushCache:   true,
		OutlierSigma: 1,
		Verify:       true,
	}.withDefaults()
}

// Measurement is the result of one (scheme, size) cell.
type Measurement struct {
	Scheme    core.Scheme
	Bytes     int64
	Workload  core.Workload
	Times     []float64 // kept per-ping-pong times, seconds
	Dismissed int
	Summary   stats.Summary
	Verified  bool
	// PlanStats is the delta of the pack-plan engine counters over
	// this cell's measurement window (both ranks: sender packs,
	// receiver unpacks; the oracle's expected pack belongs to the
	// grid's fixture set and runs before any window opens). It shows
	// which tier — compiled whole-message kernels, compiled-chunked
	// streaming or parallel execution — moved the cell's bytes, how
	// the plan cache behaved (PlanHits/PlanMisses, PlanStats.HitRate),
	// and how each typed rendezvous payload travelled:
	// FusedOps/FusedBytes for one-pass fused transfers (the sendv
	// scheme's zero-staging path),
	// StagedOps/StagedBytes for the two-pass pack→staging→unpack
	// pipeline. Studies use the fused-vs-staged split to verify the
	// sendv cells really skipped the staging buffer.
	PlanStats datatype.PlanStats
}

// Time returns the reported time per ping-pong: the mean of the kept
// samples, matching "total time divided by the number of ping-pongs"
// after dismissal.
func (m Measurement) Time() float64 { return m.Summary.Mean }

// Bandwidth returns the effective bandwidth in bytes/second for the
// one-way payload.
func (m Measurement) Bandwidth() float64 {
	if m.Summary.Mean <= 0 {
		return 0
	}
	return float64(m.Bytes) / m.Summary.Mean
}

// MeasureGrid runs every scheme over the same workloads — one fresh
// two-rank world per scheme, one after the other — and returns one row
// of Measurements per scheme, one Measurement per workload. The cells
// share one payload fixture set (core.Fixtures), built before the first
// world starts, or handed on by the previous grid over the same
// workloads.
func MeasureGrid(profile *perfmodel.Profile, schemes []core.Scheme, workloads []core.Workload, opt Options) ([][]Measurement, error) {
	fx, err := takeFixtures(workloads)
	if err != nil {
		return nil, err
	}
	grid := make([][]Measurement, len(schemes))
	for i, s := range schemes {
		if grid[i], err = measureWorld(profile, s, workloads, opt, fx); err != nil {
			return nil, err
		}
	}
	spareFixtures.Lock()
	spareFixtures.workloads, spareFixtures.fx = slices.Clone(workloads), fx
	spareFixtures.Unlock()
	return grid, nil
}

// spareFixtures holds the fixture set of the last grid that finished,
// for the next grid over the same workloads: a figure sweep measures
// every installation over one size axis, and a fresh set allocates and
// fills megabytes per installation. A grid takes the set out while it
// runs, so concurrent grids never share scratch memory.
var spareFixtures struct {
	sync.Mutex
	workloads []core.Workload
	fx        *core.Fixtures
}

// takeFixtures empties spareFixtures and returns its set when it was
// built for workloads, else a new set.
func takeFixtures(workloads []core.Workload) (*core.Fixtures, error) {
	spareFixtures.Lock()
	fx, same := spareFixtures.fx, slices.Equal(spareFixtures.workloads, workloads)
	spareFixtures.workloads, spareFixtures.fx = nil, nil
	spareFixtures.Unlock()
	if fx != nil && same {
		return fx, nil
	}
	return core.NewFixtures(workloads)
}

// MeasureSweep runs one scheme over a list of workloads: a one-row
// grid.
func MeasureSweep(profile *perfmodel.Profile, scheme core.Scheme, workloads []core.Workload, opt Options) ([]Measurement, error) {
	grid, err := MeasureGrid(profile, []core.Scheme{scheme}, workloads, opt)
	if err != nil {
		return nil, err
	}
	return grid[0], nil
}

// measureWorld is one row of a grid: the scheme's runners draw their
// buffers from fx (nil: each from a private set) on a fresh two-rank
// world. Rank 0 is the origin, rank 1 the target, as in the paper.
func measureWorld(profile *perfmodel.Profile, scheme core.Scheme, workloads []core.Workload, opt Options, fx *core.Fixtures) ([]Measurement, error) {
	opt = opt.withDefaults()
	prof := *profile // private copy; overrides must not leak to callers
	if opt.EagerLimitOverride != 0 {
		prof.EagerLimit = opt.EagerLimitOverride
	}
	results := make([]Measurement, len(workloads))
	verified := make([]bool, len(workloads))
	err := mpi.Run(2, mpi.Options{
		Profile:    &prof,
		RealTime:   opt.RealTime,
		ColdCaches: opt.ColdCaches,
		WallLimit:  opt.WallLimit,
	}, func(c *mpi.Comm) error {
		for wi, w := range workloads {
			runner, err := fx.NewRunner(scheme)
			if err != nil {
				return err
			}
			peer := 1 - c.Rank()
			if err := runner.Setup(c, w, peer); err != nil {
				return fmt.Errorf("%v setup (%d bytes): %w", scheme, w.Bytes(), err)
			}
			c.Barrier()
			// The barrier above and the one below bracket the cell's
			// pack-engine activity of both ranks; the counter delta is
			// read on rank 0 only, after the closing barrier.
			planBefore := datatype.PlanStatsSnapshot()
			times := make([]float64, 0, opt.Reps)
			for rep := 0; rep < opt.Reps; rep++ {
				if opt.FlushCache {
					// The 50 M-array rewrite: outside the timed window,
					// but it still consumes (virtual) time and empties
					// the cache (§3.2).
					c.Charge(c.Cache().FlushCost())
					c.Cache().Flush()
				}
				if c.Rank() == 0 {
					t0 := c.Wtime()
					if err := runner.Ping(); err != nil {
						return fmt.Errorf("%v ping %d: %w", scheme, rep, err)
					}
					times = append(times, c.Wtime()-t0)
				} else {
					if err := runner.Pong(); err != nil {
						return fmt.Errorf("%v pong %d: %w", scheme, rep, err)
					}
				}
			}
			if opt.Verify && !w.Virtual && c.Rank() == 1 {
				if err := runner.Check(); err != nil {
					return fmt.Errorf("%v verify (%d bytes): %w", scheme, w.Bytes(), err)
				}
				verified[wi] = true
			}
			if err := runner.Teardown(); err != nil {
				return fmt.Errorf("%v teardown: %w", scheme, err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				kept, dismissed := times, 0
				if opt.OutlierSigma > 0 {
					kept, dismissed = stats.DismissOutliers(times, opt.OutlierSigma)
				}
				results[wi] = Measurement{
					Scheme:    scheme,
					Bytes:     w.Bytes(),
					Workload:  w,
					Times:     kept,
					Dismissed: dismissed,
					Summary:   stats.Summarize(kept),
					PlanStats: datatype.PlanStatsSnapshot().Sub(planBefore),
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for wi := range results {
		results[wi].Verified = verified[wi]
	}
	return results, nil
}

// Measure runs a single (scheme, workload) cell.
func Measure(profile *perfmodel.Profile, scheme core.Scheme, w core.Workload, opt Options) (Measurement, error) {
	ms, err := MeasureSweep(profile, scheme, []core.Workload{w}, opt)
	if err != nil {
		return Measurement{}, err
	}
	return ms[0], nil
}

// Workloads builds the canonical every-other-element workloads for a
// list of payload sizes, marking those above the real-size cap as
// virtual.
func Workloads(sizes []int64, opt Options) []core.Workload {
	opt = opt.withDefaults()
	out := make([]core.Workload, len(sizes))
	for i, n := range sizes {
		w := core.ForBytes(n)
		w.Virtual = n > opt.MaxRealBytes
		out[i] = w
	}
	return out
}

// LogSizes returns payload sizes from lo to hi with the given number
// of points per decade, rounded to whole elements — the x axis of the
// paper's figures (10³ … 10⁹ bytes).
func LogSizes(lo, hi int64, perDecade int) []int64 {
	if perDecade <= 0 {
		perDecade = 3
	}
	var out []int64
	ratio := pow10(1.0 / float64(perDecade))
	x := float64(lo)
	for {
		n := int64(x + 0.5)
		if n > hi {
			break
		}
		n = n / core.ElemSize * core.ElemSize
		if n < core.ElemSize {
			n = core.ElemSize
		}
		if len(out) == 0 || out[len(out)-1] != n {
			out = append(out, n)
		}
		x *= ratio
	}
	if len(out) == 0 || out[len(out)-1] < hi {
		out = append(out, hi/core.ElemSize*core.ElemSize)
	}
	return out
}

func pow10(x float64) float64 { return math.Pow(10, x) }
