package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// ChaosStudy is E18: the fault-recovery study. The same typed payload
// moves between two ranks under the three rendezvous engines — the
// serial chunk loop (SendType), the pipelined slot ring (SendpType)
// and the fused zero-copy pass (SendvType) — while the fabric injects
// a swept rate of uniform faults (drops, corruption, truncation,
// duplication, reordering, delays) and the checksum/ACK/retry
// machinery recovers. Every cell reports goodput, the p99 of the
// per-message completion times (retries fatten the tail long before
// they move the mean), and the fabric's own recovery attribution:
// retries, integrity rejections and raw fault counts from the
// injection counters.
//
// The model panel prices the same sweep through
// core.PricePackingUnderFaults — expected attempts over the
// envelope+chunk legs, exponential backoff, truncated retry budget —
// and reports the predicted typed-send slowdown, the delivery
// probability within the budget, and the fault-adjusted
// recommendation, so the measured degradation can be read against the
// first-order reliability model.
type ChaosStudy struct {
	Profile *perfmodel.Profile
	Ranks   int
	Bytes   int64
	Reps    int
	Rates   []float64

	Schemes []ChaosSchemeResult
	Model   []ChaosModelRow

	// ty is the study's shared every-other-double layout.
	ty *datatype.Type
}

// ChaosSchemeResult is one engine's sweep across fault rates.
type ChaosSchemeResult struct {
	Name    string
	Goodput *stats.Series // GB/s against injected fault rate
	P99     *stats.Series // p99 per-message completion seconds against rate

	// Recovery attribution per rate, summed across ranks.
	Retries   []int64
	Rejects   []int64
	Faults    []int64 // injected drops+corruptions+truncations
	Transfers []int64 // completed eager+rendezvous sends, the retry denominator
	Delivered []bool  // the run survived its retry budget
}

// ChaosModelRow is the reliability model's prediction at one rate,
// alongside the profile calibrated back from the sweep's own counters:
// the per-leg loss rate inverted from observed retries-per-transfer
// through the leg-compounding model (memsim.EstimateLegLossRate), and
// the slowdown that observed profile prices. Configured and observed
// columns agreeing is the study's closed loop — the model's leg
// accounting matches what the fabric actually did.
type ChaosModelRow struct {
	Rate         float64
	Slowdown     float64 // predicted typed-send inflation
	DeliveryProb float64
	Recommended  string

	ObservedLegLoss  float64 // calibrated from summed retries/transfers
	ObservedSlowdown float64 // slowdown priced under the observed profile

	// The pipelined engine's predicted goodput retention (clean cost
	// over lossy cost) under the selective chunk protocol and under
	// the displaced whole-transfer replay, with their quotient. The
	// selective column sitting above the whole-replay one at every
	// lossy rate is what flips PR 7's conclusion: pipelining keeps its
	// edge under loss once repairs stop replaying the whole transfer.
	SelectiveRetention   float64
	WholeReplayRetention float64
	SelectiveGain        float64
}

// BuildChaosStudy measures the study for one profile. rates sweeps the
// injected fault rate (nil selects the defaults, including the clean
// baseline at 0); reps is the number of messages per cell.
func BuildChaosStudy(profileName string, rates []float64, reps int) (*ChaosStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		rates = []float64{0, 0.01, 0.02, 0.05, 0.10}
	}
	if reps <= 0 {
		reps = 16
	}
	st := &ChaosStudy{Profile: prof, Ranks: 2, Bytes: 4 << 20, Reps: reps, Rates: rates}
	ty, err := vectorFor(st.Bytes, 1, 2)
	if err != nil {
		return nil, err
	}
	st.ty = ty

	engines := []struct {
		name string
		send func(*mpi.Comm, buf.Block) error
	}{
		{"serial typed (SendType)", func(c *mpi.Comm, src buf.Block) error {
			return c.SendType(src, 1, ty, 1, 0)
		}},
		{"pipelined (SendpType)", func(c *mpi.Comm, src buf.Block) error {
			return c.SendpType(src, 1, ty, 1, 0)
		}},
		{"fused zero-copy (SendvType)", func(c *mpi.Comm, src buf.Block) error {
			return c.SendvType(src, 1, ty, 1, 0)
		}},
	}

	for _, eng := range engines {
		res := ChaosSchemeResult{
			Name:    eng.name,
			Goodput: &stats.Series{Label: eng.name},
			P99:     &stats.Series{Label: eng.name},
		}
		for i, rate := range rates {
			cell, err := st.measureCell(profileName, eng.send, rate, uint64(4021+131*i))
			if err != nil {
				return nil, err
			}
			res.Goodput.Append(rate, cell.goodput)
			res.P99.Append(rate, cell.p99)
			res.Retries = append(res.Retries, cell.retries)
			res.Rejects = append(res.Rejects, cell.rejects)
			res.Faults = append(res.Faults, cell.faults)
			res.Transfers = append(res.Transfers, cell.transfers)
			res.Delivered = append(res.Delivered, cell.delivered)
		}
		st.Schemes = append(st.Schemes, res)
	}

	rp := mpi.DefaultRetryPolicy()
	// The faultable legs per rendezvous transfer: the envelope plus one
	// data leg per internal chunk — the same accounting the executor's
	// retry loop compounds over.
	legs := 1 + prof.Chunks(st.Bytes)
	for i, rate := range rates {
		fp := memsim.FaultProfile{
			// UniformFaults spreads rate evenly over six kinds; the
			// resend class (drop, corrupt, truncate) is half of it.
			LegLossRate: rate / 2,
			MaxRetries:  rp.MaxRetries,
			BaseBackoff: float64(rp.BaseBackoff) / 1e9,
			MaxBackoff:  float64(rp.MaxBackoff) / 1e9,
		}
		// Calibrate the observed profile back from the sweep's own
		// counters, summed across the three engines at this rate.
		var retries, transfers int64
		for _, s := range st.Schemes {
			retries += s.Retries[i]
			transfers += s.Transfers[i]
		}
		obs, _ := fp.Calibrated(retries, transfers, legs)
		m := core.PricePackingUnderFaults(st.Bytes, prof, fp)
		om := core.PricePackingUnderFaults(st.Bytes, prof, obs)
		rec := core.RecommendUnderFaults(st.Bytes, false, core.GoalFastest, prof, fp)
		row := ChaosModelRow{
			Rate:                 rate,
			Slowdown:             m.Slowdown(),
			DeliveryProb:         m.DeliveryProb,
			Recommended:          rec.Scheme.String(),
			ObservedLegLoss:      obs.LegLossRate,
			ObservedSlowdown:     om.Slowdown(),
			SelectiveRetention:   1,
			WholeReplayRetention: 1,
			SelectiveGain:        m.SelectiveGain(),
		}
		if m.FaultyPipelinedSend > 0 {
			row.SelectiveRetention = m.PipelinedSend / m.FaultyPipelinedSend
		}
		if m.WholeReplayPipelinedSend > 0 {
			row.WholeReplayRetention = m.PipelinedSend / m.WholeReplayPipelinedSend
		}
		st.Model = append(st.Model, row)
	}
	return st, nil
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

// measureCell runs reps messages of the study payload through one
// engine under one fault rate and collects timing plus the fabric's
// recovery attribution. Rate 0 runs the clean fabric (no plan armed),
// so the baseline also measures the zero-cost property of the
// checksum machinery being gated off.
func (st *ChaosStudy) measureCell(profileName string, send func(*mpi.Comm, buf.Block) error, rate float64, seed uint64) (chaosCell, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return chaosCell{}, err
	}
	opts := mpi.Options{Profile: prof, ColdCaches: true, WallLimit: 2 * time.Minute}
	if rate > 0 {
		opts.Faults = simnet.UniformFaults(seed, rate)
	}
	var (
		perMsg   []float64
		total    float64
		counters [2]simnet.Counters
	)
	runErr := mpi.Run(st.Ranks, opts, func(c *mpi.Comm) error {
		defer func() { counters[c.Rank()] = c.Counters() }()
		if c.Rank() == 0 {
			src := buf.Alloc(int(st.ty.Extent()))
			for i := 0; i < st.Reps; i++ {
				t0 := c.Wtime()
				if err := send(c, src); err != nil {
					return err
				}
				perMsg = append(perMsg, c.Wtime()-t0)
			}
			total = c.Wtime()
			return nil
		}
		dst := buf.Alloc(int(st.ty.Size()))
		for i := 0; i < st.Reps; i++ {
			if _, err := c.Recv(dst, 0, 0); err != nil {
				return err
			}
		}
		return nil
	})
	cell := chaosCell{delivered: runErr == nil}
	if runErr != nil {
		// A cell that exhausts its retry budget is a data point, not a
		// study failure: it renders as zero goodput, undelivered.
		return cell, nil
	}
	if total > 0 {
		cell.goodput = float64(st.ty.Size()) * float64(st.Reps) / total / 1e9
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

// CleanOverheadAt returns the goodput ratio lossy/clean for the named
// engine at the rate closest to r (0 when unknown).
func (st *ChaosStudy) CleanOverheadAt(name string, r float64) float64 {
	for _, s := range st.Schemes {
		if s.Name != name || s.Goodput.Len() == 0 || s.Goodput.Y[0] <= 0 {
			continue
		}
		best, _ := s.Goodput.Nearest(r)
		return best / s.Goodput.Y[0]
	}
	return 0
}

// Render prints the study: the goodput-vs-rate panel, the p99 tail
// panel, the per-cell recovery attribution, the model panel, and the
// closing claim line.
func (st *ChaosStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E18 fault-recovery chaos study — %s (%d-byte typed messages, %d reps, virtual clock) ==\n\n",
		st.Profile.Name, st.Bytes, st.Reps)
	good := make([]*stats.Series, len(st.Schemes))
	tail := make([]*stats.Series, len(st.Schemes))
	for i := range st.Schemes {
		good[i] = st.Schemes[i].Goodput
		tail[i] = st.Schemes[i].P99
	}
	if err := plot.ASCII(w, plot.Config{
		Title:  "goodput (GB/s) against injected fault rate",
		XLabel: "fault rate", YLabel: "GB/s",
	}, good); err != nil {
		return err
	}
	if err := plot.ASCII(w, plot.Config{
		Title:  "p99 per-message completion (s) against injected fault rate",
		XLabel: "fault rate", YLabel: "seconds",
	}, tail); err != nil {
		return err
	}
	fmt.Fprintln(w, "recovery attribution per cell (counters summed across ranks):")
	for _, s := range st.Schemes {
		fmt.Fprintf(w, "  %s\n", s.Name)
		for i := range st.Rates {
			status := "delivered"
			if !s.Delivered[i] {
				status = "RETRY BUDGET EXHAUSTED"
			}
			fmt.Fprintf(w, "    rate %5.2f  goodput %6.2f GB/s  p99 %9.3gs  faults %4d  retries %4d  integrity rejects %3d  %s\n",
				st.Rates[i], s.Goodput.Y[i], s.P99.Y[i], s.Faults[i], s.Retries[i], s.Rejects[i], status)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "reliability model (core.PricePackingUnderFaults, resend-class legs = envelope + internal chunks);")
	fmt.Fprintln(w, "observed columns calibrate the leg-loss rate back from the sweep's retries-per-transfer;")
	fmt.Fprintln(w, "pipelined retention compares selective chunk recovery against whole-transfer replay:")
	for _, m := range st.Model {
		fmt.Fprintf(w, "  rate %5.2f (leg loss %.3f)  predicted typed slowdown %5.2fx  delivery prob %.6f  fastest under faults: %s  |  observed leg loss %.3f  slowdown %5.2fx  |  pipelined retention %5.1f%% selective vs %5.1f%% whole-replay (gain %.2fx)\n",
			m.Rate, m.Rate/2, m.Slowdown, m.DeliveryProb, m.Recommended, m.ObservedLegLoss, m.ObservedSlowdown,
			100*m.SelectiveRetention, 100*m.WholeReplayRetention, m.SelectiveGain)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "at a 5%% fault rate the fused engine retains %.0f%% of its clean goodput\n\n",
		100*st.CleanOverheadAt("fused zero-copy (SendvType)", 0.05))
	return nil
}
