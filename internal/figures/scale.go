package figures

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/plot"
	"repro/internal/stats"
)

// scaleStudy is E20: the sustained-throughput study at O(10³) ranks.
// Each cell runs a concurrent job mix — several independent ring
// communicators over one fabric, every rank holding multiple typed
// transfers in flight — and reports the aggregate payload rate, the
// per-transfer completion tail, and the fabric's shard-contention
// attribution (fast-path vs wildcard matches, live shard queues,
// pool gets). Payloads are virtual, so the rank axis (Points) reaches
// the scale-out regime on a laptop; all times are virtual clock. The
// machine carries a node hierarchy (scaleNodeSize consecutive ranks
// per node with an intra-node latency discount), so the mix's
// collectives and barriers ride the two-level topologies. The
// 256-rank cell, 4 jobs with 4 transfers in flight per rank, is the
// acceptance regime: ≥1000 concurrent typed transfers across ≥4
// communicators.
func scaleStudy() *Study {
	return &Study{
		ID: "E20", Name: "scale", Title: "sustained-throughput scale study",
		Detail: func(r *Result) string {
			return fmt.Sprintf(" (%d-byte virtual typed transfers, %d ranks/node, virtual clock)", r.Bytes, scaleNodeSize)
		},
		Points: []float64{64, 128, 256, 512, 1024}, Bytes: 1 << 20,
		Measure: measureScale,
		Panels: []Panel{
			{Config: plot.Config{Title: "aggregate payload rate against rank count (concurrent job mix)", XLabel: "ranks", YLabel: "GB/s"},
				Curves: []Curve{{Name: "aggregate", Label: "aggregate GB/s"}}},
			{Config: plot.Config{Title: "p99 per-transfer completion against rank count", XLabel: "ranks", YLabel: "seconds"},
				Curves: []Curve{{Name: "p99", Label: "p99 completion (s)"}}},
			{Config: plot.Config{Title: "per-cell attribution (matching totals are the run's own; pool deltas over the run):"}, Note: true},
		},
		Claims: []Claim{{Metric: "peakInFlight",
			Line:  "the fabric sustained %d concurrent typed transfers at its widest mix\n",
			Args:  func(r *Result) []any { return []any{int64(stats.Max(r.Series(Curve{Name: "in flight"}).Y))} },
			Value: func(r *Result) float64 { return stats.Max(r.Series(Curve{Name: "in flight"}).Y) },
			Holds: atLeast(1000)}},
		Spaced: true,
	}
}

// scaleNodeSize is the ranks per node of the scale studies' machine.
const scaleNodeSize = 16

// measureScale runs the job mix at each rank count: 2 jobs under 128
// ranks, 4 under 512 and 8 from there, 4 transfers in flight per rank,
// 2 rounds (1 at 1024 ranks).
func measureScale(r *Result, _ harness.Options) error {
	for _, x := range r.Points {
		ranks, jobs, rounds := int(x), 8, 2
		switch {
		case ranks < 128:
			jobs = 2
		case ranks < 512:
			jobs = 4
		}
		if ranks >= 1024 {
			rounds = 1
		}
		c, err := harness.RunJobMix(harness.JobMix{
			Ranks: ranks, Jobs: jobs, InFlight: 4, Rounds: rounds,
			Bytes: r.Bytes, Profile: r.Profile, NodeSize: scaleNodeSize,
		})
		if err != nil {
			return fmt.Errorf("scale cell %d ranks × %d jobs: %w", ranks, jobs, err)
		}
		r.add(Curve{Name: "aggregate"}, x, c.AggregateGBs)
		r.add(Curve{Name: "p99"}, x, c.P99)
		r.add(Curve{Name: "in flight"}, x, float64(c.InFlightPeak))
		r.printf("", "  %4d ranks × %d jobs × %d in flight × %d rounds\n", c.Ranks, c.Jobs, c.InFlight, c.Rounds)
		r.printf("", "    %6d transfers  peak in flight %5d  aggregate %8.2f GB/s  p50 %9.3gs  p99 %9.3gs\n",
			c.Transfers, c.InFlightPeak, c.AggregateGBs, c.P50, c.P99)
		r.printf("", "    matching: %d shard queues live, %d fast-path takes, %d wildcard takes\n",
			c.Matching.Queues, c.Matching.FastTakes, c.Matching.WildTakes)
		// Hits are left out: whether a get finds recycled storage depends
		// on the garbage collector, not on the simulated run.
		r.printf("", "    pool: %d gets\n", c.Pool.Gets)
	}
	r.printf("", "\n")
	return nil
}
