package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// ChaosScaleStudy is E21: chaos at scale. The E20 concurrent job mix —
// several independent ring communicators over one fabric, every rank
// holding multiple typed transfers in flight — runs with the fault
// injector armed, swept across rank count × fault rate. Every cell
// reports the goodput degradation against its clean baseline, the p99
// tail inflation, and the fabric's recovery attribution: retries,
// integrity rejections, and the selective-retransmission split
// (chunks and bytes replayed instead of whole transfers, duplicates
// suppressed).
//
// Every faulted cell is measured twice: once with the selective
// chunk protocol live (damage repaired chunk-by-chunk) and once with
// mpi.RetryPolicy.WholeReplay set, under which every damaged attempt
// is verified against one checksum of the whole stream and replayed
// whole, while chunking, checksumming, fault plan and every other cost
// stay identical. Both arms normalise against
// the shared clean baseline, so the two goodput-retention ratios
// compare the recovery protocols and nothing else. The selective
// curve sitting strictly above the whole-replay one is the study's
// point. A model panel prices the same per-transfer comparison
// analytically alongside.
type ChaosScaleStudy struct {
	Profile *perfmodel.Profile
	Bytes   int64
	Rates   []float64

	Cells []ChaosScaleCell
	Model []ChaosScaleModelRow
}

// ChaosScaleCell is one (ranks × rate) grid point. Faulted cells
// average several independently seeded trials: the mix's elapsed time
// is a max over ranks, an extreme-value statistic a single unlucky
// fault draw can swing, and the trial mean is what makes the
// selective-vs-whole-replay comparison stable.
type ChaosScaleCell struct {
	Ranks, Jobs int
	Rate        float64
	Delivered   bool
	Trials      int

	// GoodputGBs is the mean aggregate payload rate over the cell's
	// trials; GoodputRatio divides it by the clean (rate 0) baseline
	// at the same rank count, and TailInflation is the mean-p99 ratio
	// the same way. Ratios are 1 in the clean row, 0 when every trial
	// exhausted its retry budget.
	GoodputGBs    float64
	GoodputRatio  float64
	TailInflation float64
	// WholeReplayRatio is the measured counterfactual: the same mix
	// and fault plans with selective retransmission disabled
	// (mpi.RetryPolicy.WholeReplay), so every repair replays the whole
	// transfer. 0 when that arm did not deliver.
	WholeReplayRatio float64

	// Recovery sums the selective arm's fault and repair attribution
	// over the cell's trials.
	Recovery harness.RecoveryStats
}

// ChaosScaleModelRow is the reliability model's per-transfer
// prediction at one rate: the goodput retention under selective chunk
// recovery and under the whole-transfer-replay baseline, with the
// delivery probability of the selective protocol.
type ChaosScaleModelRow struct {
	Rate             float64
	SelectiveRatio   float64
	WholeReplayRatio float64
	DeliveryProb     float64
	Recommended      string
}

// DefaultChaosScaleRanks is the study's rank axis. Kept modest: every
// cell runs ranks×InFlight concurrent recoverable transfers, and the
// rate axis multiplies the grid.
func DefaultChaosScaleRanks() []int { return []int{32, 64, 128} }

// BuildChaosScaleStudy measures the study for one profile. ranks
// sweeps the world size (nil selects DefaultChaosScaleRanks), rates
// the injected fault rate (nil selects 0, 0.02, 0.05; the clean 0 row
// is always included as the ratio baseline).
func BuildChaosScaleStudy(profileName string, ranks []int, rates []float64) (*ChaosScaleStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	if len(ranks) == 0 {
		ranks = DefaultChaosScaleRanks()
	}
	if len(rates) == 0 {
		rates = []float64{0, 0.02, 0.05}
	}
	if rates[0] != 0 {
		rates = append([]float64{0}, rates...)
	}
	st := &ChaosScaleStudy{Profile: prof, Bytes: 1 << 20, Rates: rates}

	// Many chunks per transfer give the selective protocol something
	// to be selective about: 64 KiB over the 1 MiB payload spans 16,
	// so one damaged chunk replays 1/16th of the transfer where the
	// whole-replay arm resends everything.
	selProf := *prof
	if chunk := st.Bytes / 16; selProf.Mem.InternalChunk <= 0 || selProf.Mem.InternalChunk > chunk {
		selProf.Mem.InternalChunk = chunk
	}

	const trials = 3
	for _, r := range ranks {
		jobs := 2
		if r >= 128 {
			jobs = 4
		}
		run := func(plan *simnet.FaultPlan, wholeReplay bool) (harness.JobMixResult, error) {
			return harness.RunJobMix(harness.JobMix{
				Ranks: r, Jobs: jobs, InFlight: 2, Rounds: 4,
				Bytes: st.Bytes, Profile: &selProf,
				WallLimit: 4 * time.Minute,
				Faults:    plan,
				Retry:     mpi.RetryPolicy{WholeReplay: wholeReplay},
			})
		}
		// One clean baseline serves both arms: WholeReplay only changes
		// behaviour once faults damage an attempt.
		clean, err := run(nil, false)
		if err != nil {
			// A failed clean baseline is a study failure, not a data
			// point.
			return nil, fmt.Errorf("chaos-scale clean cell %d ranks: %w", r, err)
		}
		for i, rate := range rates {
			cell := ChaosScaleCell{Ranks: r, Jobs: jobs, Rate: rate}
			if rate == 0 {
				cell.Delivered = true
				cell.Trials = 1
				cell.GoodputGBs = clean.AggregateGBs
				cell.GoodputRatio = 1
				cell.TailInflation = 1
				cell.WholeReplayRatio = 1
				st.Cells = append(st.Cells, cell)
				continue
			}
			var selAgg, wrAgg, tail float64
			wrTrials := 0
			for tr := 0; tr < trials; tr++ {
				seed := uint64(7919 + 1009*i + 613*tr + r)
				if res, err := run(simnet.UniformFaults(seed, rate), false); err == nil {
					cell.Trials++
					selAgg += res.AggregateGBs
					tail += res.P99
					cell.Recovery.Merge(res.Recovery)
				}
				if wr, err := run(simnet.UniformFaults(seed, rate), true); err == nil {
					wrTrials++
					wrAgg += wr.AggregateGBs
				}
			}
			if cell.Trials > 0 {
				cell.Delivered = true
				cell.GoodputGBs = selAgg / float64(cell.Trials)
				if clean.AggregateGBs > 0 {
					cell.GoodputRatio = cell.GoodputGBs / clean.AggregateGBs
				}
				if clean.P99 > 0 {
					cell.TailInflation = tail / float64(cell.Trials) / clean.P99
				}
			}
			if wrTrials > 0 && clean.AggregateGBs > 0 {
				cell.WholeReplayRatio = wrAgg / float64(wrTrials) / clean.AggregateGBs
			}
			st.Cells = append(st.Cells, cell)
		}
	}

	rp := mpi.DefaultRetryPolicy()
	for _, rate := range rates {
		// UniformFaults spreads rate over six kinds; the resend class
		// (drop, corrupt, truncate) is half of it.
		fp := rp.FaultProfile(rate / 2)
		q := core.Query{Bytes: st.Bytes, Profile: &selProf, Faults: fp}
		m, err := core.Price(q)
		if err != nil {
			return nil, err
		}
		rec, err := core.Recommend(q, core.GoalFastest)
		if err != nil {
			return nil, err
		}
		row := ChaosScaleModelRow{Rate: rate, SelectiveRatio: 1, WholeReplayRatio: 1, DeliveryProb: m.DeliveryProb, Recommended: rec.Scheme.String()}
		if fused := m.Clean[core.Sendv]; fp.Enabled() && fused > 0 {
			// The mix's transfers ride the fused sendv rendezvous; the
			// goodput retention is clean-over-lossy expected time.
			row.SelectiveRatio = fused / m.Faulty[core.Sendv]
			row.WholeReplayRatio = fused / m.WholeReplay[core.Sendv]
		}
		st.Model = append(st.Model, row)
	}
	return st, nil
}

// CellAt returns the delivered cell at (ranks, rate), or the zero cell
// (retentions 0) when no such cell delivered.
func (st *ChaosScaleStudy) CellAt(ranks int, rate float64) ChaosScaleCell {
	for _, c := range st.Cells {
		if c.Ranks == ranks && c.Rate == rate && c.Delivered {
			return c
		}
	}
	return ChaosScaleCell{}
}

// Render prints the study: the per-cell degradation and recovery
// attribution, the model panel, and the closing claim line.
func (st *ChaosScaleStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E21 chaos-at-scale study — %s (%d-byte virtual typed transfers, concurrent job mix, virtual clock) ==\n\n",
		st.Profile.Name, st.Bytes)
	fmt.Fprintln(w, "per-cell degradation against the clean baseline (recovery counters summed across ranks):")
	lastRanks := -1
	for _, c := range st.Cells {
		if c.Ranks != lastRanks {
			fmt.Fprintf(w, "  %4d ranks × %d jobs\n", c.Ranks, c.Jobs)
			lastRanks = c.Ranks
		}
		if !c.Delivered {
			fmt.Fprintf(w, "    rate %5.2f  RETRY BUDGET EXHAUSTED\n", c.Rate)
			continue
		}
		fmt.Fprintf(w, "    rate %5.2f  goodput %8.2f GB/s (%5.1f%% of clean, whole-replay arm %5.1f%%)  p99 ×%5.2f  faults %5d  retries %4d  rejects %4d  chunk retx %4d (%d B)  dup suppressed %d\n",
			c.Rate, c.GoodputGBs, 100*c.GoodputRatio, 100*c.WholeReplayRatio, c.TailInflation,
			c.Recovery.Drops+c.Recovery.Corruptions+c.Recovery.Truncations,
			c.Recovery.Retries, c.Recovery.IntegrityRejects,
			c.Recovery.ChunkRetransmits, c.Recovery.RetransmitBytes, c.Recovery.DupChunksSuppressed)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "reliability model per transfer (selective chunk recovery vs the whole-transfer-replay baseline):")
	for _, m := range st.Model {
		fmt.Fprintf(w, "  rate %5.2f  selective retention %5.1f%%  whole-replay retention %5.1f%%  delivery prob %.6f  fastest under faults: %s\n",
			m.Rate, 100*m.SelectiveRatio, 100*m.WholeReplayRatio, m.DeliveryProb, m.Recommended)
	}
	fmt.Fprintln(w)
	c := st.CellAt(64, 0.05)
	fmt.Fprintf(w, "at a 5%% fault rate and 64 ranks the selective protocol retained %.0f%% of clean goodput (whole-transfer replay: %.0f%%)\n\n",
		100*c.GoodputRatio, 100*c.WholeReplayRatio)
	return nil
}
