package guidelines

import (
	"fmt"
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// p2pSchemes are the point-to-point engines every cell measures once;
// all p2p rules (and the recommender bound) derive from this shared
// table.
var p2pSchemes = []core.Scheme{
	core.VectorType,
	core.PackVector,
	core.PackCompiled,
	core.Sendv,
	core.TypedPipelined,
}

// workloadFor scales a layout family to an n-byte payload.
func workloadFor(lay LayoutSpec, n int64) core.Workload {
	count := int(n / (int64(lay.BlockLen) * core.ElemSize))
	if count < 1 {
		count = 1
	}
	return core.Workload{Count: count, BlockLen: lay.BlockLen, Stride: lay.Stride}
}

// measureCell executes every rule for one (profile, layout, size) grid
// point and returns the raw results (ratio/verdict are filled by the
// sweep).
func measureCell(profile string, lay LayoutSpec, n int64, cfg Config) ([]Result, error) {
	p, err := perfmodel.ByName(profile)
	if err != nil {
		return nil, err
	}
	w := workloadFor(lay, n)
	opt := harness.Options{Reps: cfg.Reps, FlushCache: true, OutlierSigma: 0}

	times := make(map[core.Scheme]float64, len(p2pSchemes))
	plans := make(map[core.Scheme]datatype.PlanStats, len(p2pSchemes))
	grid, err := harness.MeasureGrid(p, p2pSchemes, []core.Workload{w}, opt)
	if err != nil {
		return nil, err
	}
	for i, s := range p2pSchemes {
		times[s] = grid[i][0].Time()
		plans[s] = grid[i][0].PlanStats
	}

	cell := func(rule Rule, ranks int) Cell {
		return Cell{Rule: rule, Profile: profile, Layout: lay.Name, Bytes: w.Bytes(), Ranks: ranks}
	}
	var out []Result

	// Point-to-point rules, straight off the scheme table.
	out = append(out, Result{
		Cell:    cell(TypedVsPack, 2),
		LhsName: core.VectorType.String(), RhsName: core.PackVector.String(),
		Lhs: times[core.VectorType], Rhs: times[core.PackVector],
		Plan: plans[core.VectorType],
	})
	out = append(out, Result{
		Cell:    cell(SendvVsStaged, 2),
		LhsName: core.Sendv.String(), RhsName: core.VectorType.String(),
		Lhs: times[core.Sendv], Rhs: times[core.VectorType],
		Plan: plans[core.Sendv],
	})
	if p.PipelineDepth() >= 2 {
		out = append(out, Result{
			Cell:    cell(PipelinedVsSerial, 2),
			LhsName: core.TypedPipelined.String(), RhsName: core.VectorType.String(),
			Lhs: times[core.TypedPipelined], Rhs: times[core.VectorType],
			Plan: plans[core.TypedPipelined],
		})
	}

	// Recommender bound: the picked scheme against the measured best.
	rec, err := core.Recommend(core.Query{Bytes: w.Bytes(), Profile: p}, core.GoalFastest)
	if err != nil {
		return nil, err
	}
	recTime, ok := times[rec.Scheme]
	if !ok {
		m, err := harness.Measure(p, rec.Scheme, w, opt)
		if err != nil {
			return nil, fmt.Errorf("recommended %v: %w", rec.Scheme, err)
		}
		recTime = m.Time()
		times[rec.Scheme] = recTime
		plans[rec.Scheme] = m.PlanStats
	}
	best := rec.Scheme
	for s, t := range times {
		if t < times[best] {
			best = s
		}
	}
	out = append(out, Result{
		Cell:    cell(RecommenderMinimal, 2),
		LhsName: rec.Scheme.String(), RhsName: "best(" + best.String() + ")",
		Lhs: recTime, Rhs: times[best],
		Plan: plans[rec.Scheme],
	})

	// Normalizer bound: the canonicalised nested layout against its
	// gather twin's table walk on the identical payload.
	norm, err := measureNormalized(p, lay, n, cfg)
	if err != nil {
		return nil, err
	}
	norm.Profile, norm.Layout = profile, lay.Name
	out = append(out, norm)

	// Collective rules run their own bracketed worlds.
	colls, err := measureCollectives(p, w, cfg)
	if err != nil {
		return nil, err
	}
	for _, cr := range colls {
		cr.Profile, cr.Layout = profile, lay.Name
		out = append(out, cr)
	}
	return out, nil
}

// measureNormalized executes the NormalizedVsRaw rule for one grid
// point: an hvector-of-vector nesting of the layout family — the shape
// the Commit-time normalizer collapses into a canonical strided block —
// is sent through the software-pipelined typed send (SendpType, the
// engine whose slot ring the block kernels fill) as itself (Lhs) and as
// its datatype.GatherTwin (Rhs), over the virtual clock. The twin has
// the same size and runs but no closed form, so it stands in for the
// raw program: both runs move identical bytes through identical
// protocol paths, only the compiled program differs, and the
// canonicalised side must never price slower.
func measureNormalized(p *perfmodel.Profile, lay LayoutSpec, n int64, cfg Config) (Result, error) {
	const innerRuns, tag = 8, 7
	rowBytes := int64(innerRuns * lay.BlockLen * 8)
	rows := n / rowBytes
	if rows < 2 {
		rows = 2
	}
	run := func(twin bool) (float64, datatype.PlanStats, error) {
		var secs float64
		var plan datatype.PlanStats
		err := mpi.Run(2, mpi.Options{Profile: p, WallLimit: 2 * time.Minute}, func(c *mpi.Comm) error {
			inner, err := datatype.Vector(innerRuns, lay.BlockLen, lay.Stride, datatype.Float64)
			if err != nil {
				return err
			}
			// The +32 pad breaks the inner continuation, so the
			// flattener emits the irregular table the normalizer
			// collapses (a continuation-stride hvector stays regular
			// and never reaches the pass).
			ty, err := datatype.Hvector(int(rows), 1, inner.TrueExtent()+32, inner)
			if err != nil {
				return err
			}
			if err := ty.Commit(); err != nil {
				return err
			}
			if twin {
				if ty, err = datatype.GatherTwin(ty); err != nil {
					return err
				}
			}
			b := buf.Alloc(int(ty.Extent()))
			if c.Rank() == 0 {
				b.FillPattern(1)
			}
			c.Barrier()
			before := datatype.PlanStatsSnapshot()
			t0 := c.Wtime()
			for rep := 0; rep < cfg.Reps; rep++ {
				if c.Rank() == 0 {
					if err := c.SendpType(b, 1, ty, 1, tag); err != nil {
						return err
					}
				} else if _, err := c.RecvType(b, 1, ty, 0, tag); err != nil {
					return err
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				secs = (c.Wtime() - t0) / float64(cfg.Reps)
				plan = datatype.PlanStatsSnapshot().Sub(before)
			}
			return nil
		})
		return secs, plan, err
	}
	normT, normPlan, err := run(false)
	if err != nil {
		return Result{}, fmt.Errorf("normalized send: %w", err)
	}
	rawT, _, err := run(true)
	if err != nil {
		return Result{}, fmt.Errorf("gather-twin send: %w", err)
	}
	return Result{
		Cell:    Cell{Rule: NormalizedVsRaw, Bytes: rows * rowBytes, Ranks: 2},
		LhsName: "SendpType(normalized)", RhsName: "SendpType(gather twin)",
		Lhs: normT, Rhs: rawT, Plan: normPlan,
	}, nil
}

// collMeasurement is one timed collective strategy: setup builds
// per-rank state outside the timed window and returns the operation.
type collMeasurement struct {
	prof  *perfmodel.Profile
	ranks int
	reps  int
}

// run times the operation over a bracketed world: barrier, timed loop,
// barrier; seconds per op and the window's PlanStats delta are read on
// rank 0.
func (cm collMeasurement) run(setup func(c *mpi.Comm) (func() error, error)) (float64, datatype.PlanStats, error) {
	var secs float64
	var plan datatype.PlanStats
	err := mpi.Run(cm.ranks, mpi.Options{Profile: cm.prof, WallLimit: 2 * time.Minute}, func(c *mpi.Comm) error {
		op, err := setup(c)
		if err != nil {
			return err
		}
		c.Barrier()
		before := datatype.PlanStatsSnapshot()
		t0 := c.Wtime()
		for rep := 0; rep < cm.reps; rep++ {
			if err := op(); err != nil {
				return err
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			secs = (c.Wtime() - t0) / float64(cm.reps)
			plan = datatype.PlanStatsSnapshot().Sub(before)
		}
		return nil
	})
	return secs, plan, err
}

// measureCollectives executes the three collective rules for one
// workload: each typed collective against its decomposition, every
// strategy moving identical bytes through identical layouts.
func measureCollectives(p *perfmodel.Profile, w core.Workload, cfg Config) ([]Result, error) {
	ranks := cfg.Ranks
	cm := collMeasurement{prof: p, ranks: ranks, reps: cfg.Reps}
	const tag = 3

	// Typed broadcast vs the linear fan of typed sends.
	bcastTyped, bcastPlan, err := cm.run(func(c *mpi.Comm) (func() error, error) {
		ty, err := w.VectorType()
		if err != nil {
			return nil, err
		}
		b := buf.Alloc(int(ty.Extent()))
		if c.Rank() == 0 {
			b.FillPattern(1)
		}
		return func() error { return c.BcastType(b, 1, ty, 0) }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bcast typed: %w", err)
	}
	bcastFan, _, err := cm.run(func(c *mpi.Comm) (func() error, error) {
		ty, err := w.VectorType()
		if err != nil {
			return nil, err
		}
		b := buf.Alloc(int(ty.Extent()))
		if c.Rank() == 0 {
			b.FillPattern(1)
		}
		return func() error {
			if c.Rank() == 0 {
				for r := 1; r < c.Size(); r++ {
					if err := c.SendType(b, 1, ty, r, tag); err != nil {
						return err
					}
				}
				return nil
			}
			_, err := c.RecvType(b, 1, ty, 0, tag)
			return err
		}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bcast fan: %w", err)
	}

	// Typed gather vs its explicit pack/send/unpack decomposition.
	gatherSetup := func(c *mpi.Comm) (*datatype.Type, buf.Block, buf.Block, error) {
		ty, err := w.VectorType()
		if err != nil {
			return nil, buf.Block{}, buf.Block{}, err
		}
		ext := int(ty.Extent())
		send := buf.Alloc(ext)
		send.FillPattern(byte(c.Rank()))
		recv := buf.Alloc(ext * c.Size())
		return ty, send, recv, nil
	}
	gatherTyped, gatherPlan, err := cm.run(func(c *mpi.Comm) (func() error, error) {
		ty, send, recv, err := gatherSetup(c)
		if err != nil {
			return nil, err
		}
		return func() error { return c.GatherType(send, 1, ty, recv, 1, ty, 0) }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("gather typed: %w", err)
	}
	gatherP2P, _, err := cm.run(func(c *mpi.Comm) (func() error, error) {
		ty, send, recv, err := gatherSetup(c)
		if err != nil {
			return nil, err
		}
		ext := int(ty.Extent())
		pk := buf.Alloc(int(ty.PackSize(1)))
		return func() error {
			if c.Rank() != 0 {
				var pos int64
				if err := c.Pack(send, 1, ty, pk, &pos); err != nil {
					return err
				}
				return c.SendPacked(pk, 0, tag)
			}
			for r := 0; r < c.Size(); r++ {
				slot := recv.Slice(r*ext, ext)
				var pos int64
				if r == 0 {
					if err := c.Pack(send, 1, ty, pk, &pos); err != nil {
						return err
					}
				} else if _, err := c.Recv(pk, r, tag); err != nil {
					return err
				}
				pos = 0
				if err := c.Unpack(pk, &pos, slot, 1, ty); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("gather p2p: %w", err)
	}

	// Typed allgather vs gather + contiguous broadcast of the slab.
	allgatherTyped, allgatherPlan, err := cm.run(func(c *mpi.Comm) (func() error, error) {
		ty, send, recv, err := gatherSetup(c)
		if err != nil {
			return nil, err
		}
		return func() error { return c.AllgatherType(send, 1, ty, recv, 1, ty) }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("allgather typed: %w", err)
	}
	allgatherStaged, _, err := cm.run(func(c *mpi.Comm) (func() error, error) {
		ty, send, recv, err := gatherSetup(c)
		if err != nil {
			return nil, err
		}
		return func() error {
			if err := c.GatherType(send, 1, ty, recv, 1, ty, 0); err != nil {
				return err
			}
			return c.Bcast(recv, 0)
		}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("allgather staged: %w", err)
	}

	cell := func(rule Rule) Cell {
		return Cell{Rule: rule, Bytes: w.Bytes(), Ranks: ranks}
	}
	return []Result{
		{
			Cell:    cell(BcastVsLinearFan),
			LhsName: "BcastType", RhsName: "linear-fan",
			Lhs: bcastTyped, Rhs: bcastFan, Plan: bcastPlan,
		},
		{
			Cell:    cell(CollectiveVsP2P),
			LhsName: "GatherType", RhsName: "pack+send+unpack",
			Lhs: gatherTyped, Rhs: gatherP2P, Plan: gatherPlan,
		},
		{
			Cell:    cell(AllgatherVsGatherBcast),
			LhsName: "AllgatherType", RhsName: "gather+bcast",
			Lhs: allgatherTyped, Rhs: allgatherStaged, Plan: allgatherPlan,
		},
	}, nil
}
