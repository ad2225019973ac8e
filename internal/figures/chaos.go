package figures

import (
	"errors"
	"fmt"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// chaosStudy is E18: the fault-recovery study. The same typed payload
// moves between two ranks under the three rendezvous engines — the
// serial chunk loop (SendType), the pipelined one (SendpType, its
// overlap modelled) and the fused zero-copy pass (SendvType) — while
// the fabric injects a swept rate (Points) of uniform faults (drops,
// corruption, truncation, duplication, reordering, delays) and the
// checksum/ACK/retry machinery recovers. Every cell reports goodput,
// the p99 of the per-message completion times (retries fatten the tail
// long before they move the mean), and the fabric's own recovery
// attribution: retries, integrity rejections and raw fault counts from
// the injection counters.
//
// The model note prices the same sweep through core.Price under a
// fault profile — expected attempts over the envelope+chunk legs,
// exponential backoff, truncated retry budget — and reports the
// predicted typed-send slowdown, the delivery probability within the
// budget, and the fault-adjusted recommendation, so the measured
// degradation can be read against the first-order reliability model.
// Its observed columns calibrate the per-leg loss rate back from the
// sweep's own retries-per-transfer (memsim.EstimateLegLossRate) and
// price that profile: configured and observed columns agreeing is the
// study's closed loop. Its retention columns compare the pipelined
// engine under selective chunk recovery and under whole-transfer
// replay; the selective column above the whole-replay one at every
// lossy rate is what keeps pipelining's edge under loss. The model
// curves hold the same columns for the tests.
func chaosStudy() *Study {
	engines := []string{"serial typed (SendType)", "pipelined (SendpType)", "fused zero-copy (SendvType)"}
	var curves []Curve
	for _, e := range engines {
		curves = append(curves, Curve{Name: e})
	}
	return &Study{
		ID: "E18", Name: "chaos", Title: "fault-recovery chaos study",
		Detail: func(r *Result) string {
			return fmt.Sprintf(" (%d-byte typed messages, %d reps, virtual clock)", r.Bytes, r.opt.Reps)
		},
		Points: []float64{0, 0.01, 0.02, 0.05, 0.10}, Bytes: 4 << 20, MaxReps: 16,
		Measure: func(r *Result, opt harness.Options) error { return measureChaos(r, opt, engines) },
		Panels: []Panel{
			{Config: plot.Config{Title: "goodput (GB/s) against injected fault rate", XLabel: "fault rate", YLabel: "GB/s"},
				Variant: "goodput", Curves: curves},
			{Config: plot.Config{Title: "p99 per-message completion (s) against injected fault rate", XLabel: "fault rate", YLabel: "seconds"},
				Variant: "p99", Curves: curves},
			{Config: plot.Config{Title: "recovery attribution per cell (counters summed across ranks):"}, Note: true},
		},
		Claims: []Claim{{Metric: "fusedRetention@5%(%)",
			Line: "at a 5%% fault rate the fused engine retains %.0f%% of its clean goodput\n",
			Value: func(r *Result) float64 {
				g := r.Series(Curve{Name: engines[2], Variant: "goodput"})
				v, _ := g.Nearest(0.05)
				return 100 * ratio(v, g.Y[0])
			},
			Holds: func(v float64) bool { return v < 100 }}},
		Spaced: true,
	}
}

// measureChaos runs every engine across the fault rates, then prices
// each rate through the reliability model.
func measureChaos(r *Result, opt harness.Options, engines []string) error {
	ty, err := vectorFor(r.Bytes, 1, 2)
	if err != nil {
		return err
	}
	sends := []func(*mpi.Comm, buf.Block) error{
		func(c *mpi.Comm, src buf.Block) error { return c.SendType(src, 1, ty, 1, 0) },
		func(c *mpi.Comm, src buf.Block) error { return c.SendpType(src, 1, ty, 1, 0) },
		func(c *mpi.Comm, src buf.Block) error { return c.SendvType(src, 1, ty, 1, 0) },
	}
	retries := make([]int64, len(r.Points))
	transfers := make([]int64, len(r.Points))
	for e, name := range engines {
		r.printf("", "  %s\n", name)
		for i, rate := range r.Points {
			cell, err := measureChaosCell(r.Profile.Name, ty, opt.Reps, sends[e], rate, uint64(4021+131*i))
			if err != nil {
				return err
			}
			r.add(Curve{Name: name, Variant: "goodput"}, rate, cell.goodput)
			r.add(Curve{Name: name, Variant: "p99"}, rate, cell.p99)
			r.add(Curve{Name: name, Variant: "faults"}, rate, float64(cell.faults))
			r.add(Curve{Name: name, Variant: "retries"}, rate, float64(cell.retries))
			retries[i] += cell.retries
			transfers[i] += cell.transfers
			status := "delivered"
			if !cell.delivered {
				status = "RETRY BUDGET EXHAUSTED"
			}
			r.printf("", "    rate %5.2f  goodput %6.2f GB/s  p99 %9.3gs  faults %4d  retries %4d  integrity rejects %3d  %s\n",
				rate, cell.goodput, cell.p99, cell.faults, cell.retries, cell.rejects, status)
		}
	}
	r.printf("", "\nreliability model (core.Price with Query.Faults, resend-class legs = envelope + internal chunks);\n")
	r.printf("", "observed columns calibrate the leg-loss rate back from the sweep's retries-per-transfer;\n")
	r.printf("", "pipelined retention compares selective chunk recovery against whole-transfer replay:\n")

	rp := mpi.DefaultRetryPolicy()
	// The faultable legs per rendezvous transfer: the envelope plus one
	// data leg per internal chunk — the same accounting the executor's
	// retry loop compounds over.
	legs := 1 + r.Profile.Chunks(r.Bytes)
	for i, rate := range r.Points {
		// UniformFaults spreads rate evenly over six kinds; the resend
		// class (drop, corrupt, truncate) is half of it.
		fp := rp.FaultProfile(rate / 2)
		// Calibrate the observed profile back from the sweep's own
		// counters, summed across the three engines at this rate.
		obs, _ := fp.Calibrated(retries[i], transfers[i], legs)
		q := core.Query{Bytes: r.Bytes, Profile: r.Profile, Faults: fp}
		m, err := core.Price(q)
		if err != nil {
			return err
		}
		rec, err := core.Recommend(q, core.GoalFastest)
		if err != nil {
			return err
		}
		q.Faults = obs
		om, err := core.Price(q)
		if err != nil {
			return err
		}
		selective, whole, gain := 1.0, 1.0, 1.0
		if lossy := m.Faulty[core.TypedPipelined]; lossy > 0 {
			selective = m.Clean[core.TypedPipelined] / lossy
			whole = m.Clean[core.TypedPipelined] / m.WholeReplay[core.TypedPipelined]
			gain = m.WholeReplay[core.TypedPipelined] / lossy
		}
		for name, y := range map[string]float64{"slowdown": typedSlowdown(m), "delivery": m.DeliveryProb,
			"observed leg loss": obs.LegLossRate, "observed slowdown": typedSlowdown(om),
			"selective": selective, "whole replay": whole} {
			r.add(Curve{Name: name, Variant: "model"}, rate, y)
		}
		r.printf("", "  rate %5.2f (leg loss %.3f)  predicted typed slowdown %5.2fx  delivery prob %.6f  fastest under faults: %s  |  observed leg loss %.3f  slowdown %5.2fx  |  pipelined retention %5.1f%% selective vs %5.1f%% whole-replay (gain %.2fx)\n",
			rate, rate/2, typedSlowdown(m), m.DeliveryProb, rec.Scheme, obs.LegLossRate, typedSlowdown(om),
			100*selective, 100*whole, gain)
	}
	r.printf("", "\n")
	return nil
}

// typedSlowdown is the fault-induced inflation of the direct datatype
// send: expected lossy time over clean time.
func typedSlowdown(m core.Cost) float64 {
	if m.Clean[core.VectorType] <= 0 {
		return 1
	}
	return m.Faulty[core.VectorType] / m.Clean[core.VectorType]
}

type chaosCell struct {
	goodput   float64
	p99       float64
	retries   int64
	rejects   int64
	faults    int64
	transfers int64
	delivered bool
}

// measureChaosCell runs reps messages of ty through one
// engine under one fault rate and collects timing plus the fabric's
// recovery attribution. Rate 0 runs the clean fabric (no plan armed),
// so the baseline also measures the zero-cost property of the
// checksum machinery being gated off.
func measureChaosCell(profileName string, ty *datatype.Type, reps int, send func(*mpi.Comm, buf.Block) error, rate float64, seed uint64) (chaosCell, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return chaosCell{}, err
	}
	world := mpi.World{Ranks: 2, Profile: prof, ColdCaches: true}
	if rate > 0 {
		world.Faults = simnet.UniformFaults(seed, rate)
	}
	var (
		perMsg   []float64
		counters [2]simnet.Counters
	)
	run, err := mpi.Measure(world, func(c *mpi.Comm) error {
		defer func() { counters[c.Rank()] = c.Counters() }()
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			for i := 0; i < reps; i++ {
				t0 := c.Wtime()
				if err := send(c, src); err != nil {
					return err
				}
				perMsg = append(perMsg, c.Wtime()-t0)
			}
			return nil
		}
		dst := buf.Alloc(int(ty.Size()))
		for i := 0; i < reps; i++ {
			if _, err := c.Recv(dst, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if errors.Is(err, mpi.ErrRetriesExhausted) || errors.Is(err, mpi.ErrIntegrity) {
		// A cell that exhausts its retry budget is a data point, not a
		// study failure: it renders as zero goodput, undelivered.
		return chaosCell{}, nil
	}
	if err != nil {
		return chaosCell{}, err
	}
	cell := chaosCell{delivered: true}
	if total := run.Ends[0]; total > 0 {
		cell.goodput = float64(ty.Size()) * float64(reps) / total / 1e9
	}
	cell.p99 = stats.Quantile(perMsg, 0.99)
	for _, ct := range counters {
		cell.retries += ct.Retries
		cell.rejects += ct.IntegrityRejects
		cell.faults += ct.Drops + ct.Corruptions + ct.Truncations
		cell.transfers += ct.EagerSends + ct.RendezvousSends
	}
	return cell, nil
}
