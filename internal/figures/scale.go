package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/harness"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/stats"
)

// ScaleStudy is E20: the sustained-throughput study at O(10³) ranks.
// Each cell runs a concurrent job mix — several independent ring
// communicators over one fabric, every rank holding multiple typed
// transfers in flight — and reports the aggregate payload rate, the
// per-transfer completion tail, and the fabric's shard-contention
// attribution (fast-path vs wildcard matches, live shard queues,
// pool-pressure adaptations). Payloads are virtual, so the rank axis
// reaches the scale-out regime on a laptop; all times are virtual
// clock. The machine carries a node hierarchy (NodeSize consecutive
// ranks per node with an intra-node latency discount), so the mix's
// collectives and barriers ride the two-level topologies.
type ScaleStudy struct {
	Profile  *perfmodel.Profile
	Bytes    int64
	NodeSize int

	Cells []harness.JobMixResult

	Throughput *stats.Series // aggregate GB/s against rank count
	Tail       *stats.Series // p99 completion seconds against rank count
}

// ScaleCellSpec is one grid point of the study.
type ScaleCellSpec struct {
	Ranks, Jobs, InFlight, Rounds int
}

// DefaultScaleGrid is the study's rank×job sweep. The 256-rank cell
// with 4 jobs and 4 transfers in flight is the acceptance regime:
// ≥1000 concurrent typed transfers across ≥4 communicators.
func DefaultScaleGrid() []ScaleCellSpec {
	return []ScaleCellSpec{
		{Ranks: 64, Jobs: 2, InFlight: 4, Rounds: 2},
		{Ranks: 128, Jobs: 4, InFlight: 4, Rounds: 2},
		{Ranks: 256, Jobs: 4, InFlight: 4, Rounds: 2},
		{Ranks: 512, Jobs: 8, InFlight: 4, Rounds: 2},
		{Ranks: 1024, Jobs: 8, InFlight: 4, Rounds: 1},
	}
}

// BuildScaleStudy measures the grid on one installation. A nil grid
// selects DefaultScaleGrid.
func BuildScaleStudy(profileName string, grid []ScaleCellSpec) (*ScaleStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	if len(grid) == 0 {
		grid = DefaultScaleGrid()
	}
	st := &ScaleStudy{
		Profile: prof, Bytes: 1 << 20, NodeSize: 16,
		Throughput: &stats.Series{Label: "aggregate GB/s"},
		Tail:       &stats.Series{Label: "p99 completion (s)"},
	}
	for _, cell := range grid {
		res, err := harness.RunJobMix(harness.JobMix{
			Ranks: cell.Ranks, Jobs: cell.Jobs,
			InFlight: cell.InFlight, Rounds: cell.Rounds,
			Bytes: st.Bytes, Profile: prof, NodeSize: st.NodeSize,
			WallLimit: 4 * time.Minute,
		})
		if err != nil {
			return nil, fmt.Errorf("scale cell %d ranks × %d jobs: %w", cell.Ranks, cell.Jobs, err)
		}
		st.Cells = append(st.Cells, res)
		st.Throughput.Append(float64(res.Ranks), res.AggregateGBs)
		st.Tail.Append(float64(res.Ranks), res.P99)
	}
	return st, nil
}

// PeakInFlight returns the largest concurrent-transfer high-water
// mark across the grid.
func (st *ScaleStudy) PeakInFlight() int64 {
	var peak int64
	for _, c := range st.Cells {
		if c.InFlightPeak > peak {
			peak = c.InFlightPeak
		}
	}
	return peak
}

// Render prints the study: the throughput and tail panels against the
// rank axis, the per-cell shard-contention attribution, and the
// closing claim line.
func (st *ScaleStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E20 sustained-throughput scale study — %s (%d-byte virtual typed transfers, %d ranks/node, virtual clock) ==\n\n",
		st.Profile.Name, st.Bytes, st.NodeSize)
	if err := plot.ASCII(w, plot.Config{
		Title:  "aggregate payload rate against rank count (concurrent job mix)",
		XLabel: "ranks", YLabel: "GB/s",
	}, []*stats.Series{st.Throughput}); err != nil {
		return err
	}
	if err := plot.ASCII(w, plot.Config{
		Title:  "p99 per-transfer completion against rank count",
		XLabel: "ranks", YLabel: "seconds",
	}, []*stats.Series{st.Tail}); err != nil {
		return err
	}
	fmt.Fprintln(w, "per-cell attribution (matching totals are the run's own; pool deltas over the run):")
	for _, c := range st.Cells {
		fmt.Fprintf(w, "  %4d ranks × %d jobs × %d in flight × %d rounds\n", c.Ranks, c.Jobs, c.InFlight, c.Rounds)
		fmt.Fprintf(w, "    %6d transfers  peak in flight %5d  aggregate %8.2f GB/s  p50 %9.3gs  p99 %9.3gs\n",
			c.Transfers, c.InFlightPeak, c.AggregateGBs, c.P50, c.P99)
		fmt.Fprintf(w, "    matching: %d shard queues live, %d fast-path takes, %d wildcard takes\n",
			c.Matching.Queues, c.Matching.FastTakes, c.Matching.WildTakes)
		fmt.Fprintf(w, "    pool: %d gets (%d hits), %d eager adaptations, %d cap degradations\n",
			c.Pool.Gets, c.Pool.Hits, c.Pool.EagerAdaptations, c.Pool.Degradations)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "the fabric sustained %d concurrent typed transfers at its widest mix\n\n", st.PeakInFlight())
	return nil
}
