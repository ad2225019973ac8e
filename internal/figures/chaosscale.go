package figures

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/plot"
	"repro/internal/simnet"
)

// chaosScaleStudy is E21: chaos at scale. The E20 concurrent job mix —
// several independent ring communicators over one fabric, every rank
// holding multiple typed transfers in flight — runs with the fault
// injector armed, swept across rank count (Points) × fault rate. Every
// cell reports the goodput degradation against its clean baseline, the
// p99 tail inflation, and the fabric's recovery attribution: retries,
// integrity rejections, and the selective-retransmission split (chunks
// and bytes replayed instead of whole transfers, duplicates
// suppressed).
//
// Every faulted cell is measured twice: once with the selective chunk
// protocol live (damage repaired chunk-by-chunk) and once with
// mpi.RetryPolicy.WholeReplay set, under which every damaged attempt
// is verified against one checksum of the whole stream and replayed
// whole, while chunking, checksumming, fault plan and every other cost
// stay identical. Both arms normalise against the shared clean
// baseline, so the two goodput-retention ratios compare the recovery
// protocols and nothing else. The selective curve sitting strictly
// above the whole-replay one is the study's point. A model note prices
// the same per-transfer comparison analytically alongside.
//
// Faulted cells average several independently seeded trials: the mix's
// elapsed time is a max over ranks, an extreme-value statistic a
// single unlucky fault draw can swing, and the trial mean is what makes
// the selective-vs-whole-replay comparison stable. A cell whose every
// trial exhausted its retry budget retains 0.
func chaosScaleStudy() *Study {
	// The retained percentage of clean goodput at 64 ranks and 5%.
	retained := func(r *Result, arm string) float64 { return 100 * r.at(Curve{Name: arm, Variant: "64 ranks"}, 0.05) }
	return &Study{
		ID: "E21", Name: "chaosscale", Title: "chaos-at-scale study",
		Detail: func(r *Result) string {
			return fmt.Sprintf(" (%d-byte virtual typed transfers, concurrent job mix, virtual clock)", r.Bytes)
		},
		Points: []float64{32, 64, 128}, Bytes: 1 << 20,
		Measure: measureChaosScale,
		Panels: []Panel{{Config: plot.Config{
			Title: "per-cell degradation against the clean baseline (recovery counters summed across ranks):"}, Note: true}},
		Claims: []Claim{{Metric: "selectiveEdge@64r5%(pp)",
			Line:  "at a 5%% fault rate and 64 ranks the selective protocol retained %.0f%% of clean goodput (whole-transfer replay: %.0f%%)\n",
			Args:  func(r *Result) []any { return []any{retained(r, "selective"), retained(r, "whole replay")} },
			Value: func(r *Result) float64 { return retained(r, "selective") - retained(r, "whole replay") },
			Holds: above(0)}},
		Spaced: true,
	}
}

// measureChaosScale runs the clean baseline and the faulted cells at
// each rank count, then prices each rate through the reliability model.
func measureChaosScale(r *Result, _ harness.Options) error {
	rates := []float64{0, 0.02, 0.05}
	// Many chunks per transfer give the selective protocol something
	// to be selective about: 64 KiB over the 1 MiB payload spans 16,
	// so one damaged chunk replays 1/16th of the transfer where the
	// whole-replay arm resends everything.
	prof := *r.Profile
	if chunk := r.Bytes / 16; prof.Mem.InternalChunk <= 0 || prof.Mem.InternalChunk > chunk {
		prof.Mem.InternalChunk = chunk
	}
	const trials = 3
	for _, x := range r.Points {
		ranks, jobs, v := int(x), 2, fmt.Sprintf("%d ranks", int(x))
		if ranks >= 128 {
			jobs = 4
		}
		run := func(plan *simnet.FaultPlan, wholeReplay bool) (harness.JobMixResult, error) {
			return harness.RunJobMix(harness.JobMix{
				Ranks: ranks, Jobs: jobs, InFlight: 2, Rounds: 4,
				Bytes: r.Bytes, Profile: &prof,
				Faults: plan,
				Retry:  mpi.RetryPolicy{WholeReplay: wholeReplay},
			})
		}
		// One clean baseline serves both arms: WholeReplay only changes
		// behaviour once faults damage an attempt.
		clean, err := run(nil, false)
		if err != nil {
			// A failed clean baseline is a study failure, not a data
			// point.
			return fmt.Errorf("chaos-scale clean cell %d ranks: %w", ranks, err)
		}
		r.printf("", "  %4d ranks × %d jobs\n", ranks, jobs)
		for i, rate := range rates {
			delivered, goodput, sel, wr, tail := true, clean.AggregateGBs, 1.0, 1.0, 1.0
			var rec harness.RecoveryStats
			if rate > 0 {
				var selAgg, wrAgg, p99 float64
				selN, wrN := 0, 0
				for tr := range trials {
					seed := uint64(7919 + 1009*i + 613*tr + ranks)
					if res, err := run(simnet.UniformFaults(seed, rate), false); err == nil {
						selN++
						selAgg += res.AggregateGBs
						p99 += res.P99
						rec.Merge(res.Recovery)
					}
					if res, err := run(simnet.UniformFaults(seed, rate), true); err == nil {
						wrN++
						wrAgg += res.AggregateGBs
					}
				}
				delivered, goodput, sel, wr, tail = selN > 0, 0, 0, 0, 0
				if delivered {
					goodput = selAgg / float64(selN)
					if clean.AggregateGBs > 0 {
						sel = goodput / clean.AggregateGBs
					}
					if clean.P99 > 0 {
						tail = p99 / float64(selN) / clean.P99
					}
					if wrN > 0 && clean.AggregateGBs > 0 {
						wr = wrAgg / float64(wrN) / clean.AggregateGBs
					}
				}
			}
			faults := rec.Drops + rec.Corruptions + rec.Truncations
			r.add(Curve{Name: "selective", Variant: v}, rate, sel)
			r.add(Curve{Name: "whole replay", Variant: v}, rate, wr)
			r.add(Curve{Name: "tail", Variant: v}, rate, tail)
			r.add(Curve{Name: "faults", Variant: v}, rate, float64(faults))
			r.add(Curve{Name: "chunk retx", Variant: v}, rate, float64(rec.ChunkRetransmits))
			if !delivered {
				r.printf("", "    rate %5.2f  RETRY BUDGET EXHAUSTED\n", rate)
				continue
			}
			r.printf("", "    rate %5.2f  goodput %8.2f GB/s (%5.1f%% of clean, whole-replay arm %5.1f%%)  p99 ×%5.2f  faults %5d  retries %4d  rejects %4d  chunk retx %4d (%d B)  dup suppressed %d\n",
				rate, goodput, 100*sel, 100*wr, tail, faults, rec.Retries, rec.IntegrityRejects,
				rec.ChunkRetransmits, rec.RetransmitBytes, rec.DupChunksSuppressed)
		}
	}

	r.printf("", "\nreliability model per transfer (selective chunk recovery vs the whole-transfer-replay baseline):\n")
	rp := mpi.DefaultRetryPolicy()
	for _, rate := range rates {
		// UniformFaults spreads rate over six kinds; the resend class
		// (drop, corrupt, truncate) is half of it.
		fp := rp.FaultProfile(rate / 2)
		q := core.Query{Bytes: r.Bytes, Profile: &prof, Faults: fp}
		m, err := core.Price(q)
		if err != nil {
			return err
		}
		best, err := core.Recommend(q, core.GoalFastest)
		if err != nil {
			return err
		}
		sel, whole := 1.0, 1.0
		if fused := m.Clean[core.Sendv]; fp.Enabled() && fused > 0 {
			// The mix's transfers ride the fused sendv rendezvous; the
			// goodput retention is clean-over-lossy expected time.
			sel = fused / m.Faulty[core.Sendv]
			whole = fused / m.WholeReplay[core.Sendv]
		}
		r.add(Curve{Name: "selective", Variant: "model"}, rate, sel)
		r.add(Curve{Name: "whole replay", Variant: "model"}, rate, whole)
		r.add(Curve{Name: "delivery", Variant: "model"}, rate, m.DeliveryProb)
		r.printf("", "  rate %5.2f  selective retention %5.1f%%  whole-replay retention %5.1f%%  delivery prob %.6f  fastest under faults: %s\n",
			rate, 100*sel, 100*whole, m.DeliveryProb, best.Scheme)
	}
	r.printf("", "\n")
	return nil
}
