package mpi

import (
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// World is what a measured run chooses of Options. The watchdog is
// not among it: every measured run gets two minutes, which the largest
// internal worlds (1024 ranks, with or without faults) stay far below.
type World struct {
	Ranks      int
	Profile    *perfmodel.Profile
	ColdCaches bool
	Faults     *simnet.FaultPlan
	Retry      RetryPolicy
}

// Measured is what a measured run reports: each world rank's virtual
// seconds when its body returned, and the pack-plan engine and
// block-pool counter deltas over the whole run.
type Measured struct {
	Ends []float64
	Plan datatype.PlanStats
	Pool buf.PoolStats
}

// Measure runs body on a fresh world under the watchdog. On error only
// the error is meaningful: a rank the watchdog abandoned may still run.
func Measure(w World, body func(*Comm) error) (Measured, error) {
	ends := make([]float64, max(w.Ranks, 0))
	plan, pool := datatype.PlanStatsSnapshot(), buf.PoolStatsSnapshot()
	opts := Options{Profile: w.Profile, ColdCaches: w.ColdCaches, WallLimit: 2 * time.Minute, Faults: w.Faults, Retry: w.Retry, ends: ends}
	if err := Run(w.Ranks, opts, body); err != nil {
		return Measured{}, err
	}
	return Measured{ends, datatype.PlanStatsSnapshot().Sub(plan), buf.PoolStatsSnapshot().Sub(pool)}, nil
}

// Window runs op on every rank of c between two barriers and returns
// the virtual seconds between them and the pack-plan counter delta of
// all ranks' ops, the same on every rank. Each snapshot is fenced by a
// synchronisation that costs no virtual time, so no rank's op begins
// before every rank has read the counters, and no rank's later work
// begins before every rank has read them again.
func Window(c *Comm, op func() error) (float64, datatype.PlanStats, error) {
	c.Barrier()
	before := datatype.PlanStatsSnapshot()
	c.groupSync()
	t0 := c.Wtime()
	if err := op(); err != nil {
		return 0, datatype.PlanStats{}, err
	}
	c.Barrier()
	secs, plan := c.Wtime()-t0, datatype.PlanStatsSnapshot().Sub(before)
	c.groupSync()
	return secs, plan, nil
}
