package mpi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/datatype"
)

// TestMeasureReportsTheRun pins the runner's readouts to the same
// quantities taken by hand over one two-rank SendpType world: rank 0's
// final Wtime, and the plan and pool counters bracketed around the
// whole run. Not parallel: the counters are process-wide.
func TestMeasureReportsTheRun(t *testing.T) {
	ty, err := datatype.Vector(1<<14, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	var last float64
	plan, pool := datatype.PlanStatsSnapshot(), buf.PoolStatsSnapshot()
	m, err := Measure(World{Ranks: 2, Profile: smallChunkProfile()}, func(c *Comm) error {
		b := buf.Alloc(int(ty.Extent()))
		if c.Rank() == 1 {
			_, err := c.RecvType(b, 1, ty, 0, 0)
			return err
		}
		b.FillPattern(0x3C)
		if err := c.SendpType(b, 1, ty, 1, 0); err != nil {
			return err
		}
		last = c.Wtime()
		return nil
	})
	wantPlan, wantPool := datatype.PlanStatsSnapshot().Sub(plan), buf.PoolStatsSnapshot().Sub(pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Ends) != 2 || m.Ends[0] != last || last <= 0 {
		t.Errorf("Ends %v, want rank 0's final Wtime %v first", m.Ends, last)
	}
	if m.Plan != wantPlan {
		t.Errorf("Plan %v, want the hand bracket %v", m.Plan, wantPlan)
	}
	if m.Plan.PipelinedOps == 0 {
		t.Errorf("Plan %v: the pipelined send recorded no chunks", m.Plan)
	}
	if m.Pool != wantPool {
		t.Errorf("Pool %+v, want the hand bracket %+v", m.Pool, wantPool)
	}

	boom := errors.New("body failed")
	_, err = Measure(World{Ranks: 2}, func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("Measure returned %v, want the body's error", err)
	}
}

// TestWindowCountsOnlyItsOps brackets one Pack per rank in a Window
// between packs outside it on every rank: each rank's delta must hold
// exactly the window's packs, neither an early rank's next pack nor a
// late rank's previous one. Not parallel: the counters are
// process-wide.
func TestWindowCountsOnlyItsOps(t *testing.T) {
	const ranks = 8
	ty, err := datatype.Vector(64, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	for range 20 {
		_, err := Measure(World{Ranks: ranks}, func(c *Comm) error {
			src, dst := buf.Alloc(int(ty.Extent())), buf.Alloc(int(ty.Size()))
			pack := func() error {
				var pos int64
				return c.Pack(src, 1, ty, dst, &pos)
			}
			for range c.Rank() {
				if err := pack(); err != nil {
					return err
				}
			}
			_, plan, err := Window(c, pack)
			if err != nil {
				return err
			}
			if plan.StrideOps != ranks || plan.StrideBytes != ranks*ty.Size() {
				return fmt.Errorf("rank %d: window recorded %v, want exactly %d packs of %d bytes", c.Rank(), plan, ranks, ty.Size())
			}
			for range ranks - c.Rank() {
				if err := pack(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
