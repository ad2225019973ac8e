// Package figures regenerates the paper's evaluation artefacts, each
// under an experiment identifier: the four installation figures E1–E4
// (Figures 1–4: time, bandwidth and slowdown panels over every scheme,
// built by Build), the §3.2 ping-pong table per scheme and the studies
// E5–E21. The table and the studies are rows of one table (Studies),
// measured by one runner (Study.Run) and rendered by one renderer
// (Result.Render) that writes the header, the charts, tables and notes,
// and the closing claim lines; TestStudyClaims checks every claim.
// E5–E12 — eager limit §4.5, cache flushing §4.6, spacing, block size
// and node scaling §4.7, the §2 cost-model factors, the NIC-pipelining
// what-if and the pack-plan compiler — are harness grids; E9 and
// E13–E21 measure through a Measure hook of their own.
// cmd/figures runs any of them by name: `figures -study list`.
package figures

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/stats"
)

// FigureByProfile names the paper figure each installation appears in.
var FigureByProfile = map[string]string{
	"skx-impi":    "Figure 1",
	"skx-mvapich": "Figure 2",
	"ls5-cray":    "Figure 3",
	"knl-impi":    "Figure 4",
}

// Figure holds one installation's full sweep: the paper's three
// panels over all eight schemes.
type Figure struct {
	Profile *perfmodel.Profile
	Title   string
	Sizes   []int64

	// Panels, one series per scheme in legend order.
	Time      []*stats.Series
	Bandwidth []*stats.Series
	Slowdown  []*stats.Series

	// Raw measurements per scheme.
	Measurements map[core.Scheme][]harness.Measurement
}

// DefaultSizes is the paper's x axis: 10³ … 10⁹ bytes.
func DefaultSizes(perDecade int) []int64 {
	return harness.LogSizes(1_000, 1_000_000_000, perDecade)
}

// Build measures every scheme of the figure for one installation.
func Build(profileName string, sizes []int64, opt harness.Options) (*Figure, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	title := FigureByProfile[profileName]
	if title == "" {
		title = "custom figure"
	}
	f := &Figure{
		Profile:      prof,
		Title:        fmt.Sprintf("%s — %s", title, prof.Description),
		Sizes:        sizes,
		Measurements: map[core.Scheme][]harness.Measurement{},
	}
	schemes := core.Schemes()
	grid, err := harness.MeasureGrid(prof, schemes, harness.Workloads(sizes, opt), opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", profileName, err)
	}
	for i, scheme := range schemes {
		ms := grid[i]
		f.Measurements[scheme] = ms
		ts := &stats.Series{Label: scheme.String()}
		bw := &stats.Series{Label: scheme.String()}
		for _, m := range ms {
			ts.Append(float64(m.Bytes), m.Time())
			bw.Append(float64(m.Bytes), m.Bandwidth()/1e9) // GB/s
		}
		f.Time = append(f.Time, ts)
		f.Bandwidth = append(f.Bandwidth, bw)
	}
	ref := f.Time[0] // reference is first in legend order
	for _, ts := range f.Time {
		f.Slowdown = append(f.Slowdown, stats.Ratio(ts.Label, ts, ref))
	}
	return f, nil
}

// Render writes the three ASCII panels, mirroring the paper's layout.
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n\n", f.Title)
	panels := []struct {
		cfg    plot.Config
		series []*stats.Series
	}{
		{plot.Config{Title: "Time (sec)", XLabel: "message bytes", YLabel: "sec", LogX: true, LogY: true}, f.Time},
		{plot.Config{Title: "bwidth (GB/s)", XLabel: "message bytes", YLabel: "GB/s", LogX: true}, f.Bandwidth},
		{plot.Config{Title: "slowdown vs reference", XLabel: "message bytes", YLabel: "x", LogX: true, YMax: 10}, f.Slowdown},
	}
	for _, p := range panels {
		if err := plot.ASCII(&b, p.cfg, p.series); err != nil {
			return err
		}
		fmt.Fprintln(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV emits the three panels as CSV blocks separated by blank
// lines: time, bandwidth (GB/s), slowdown.
func (f *Figure) WriteCSV(w io.Writer) error {
	var b strings.Builder
	for i, panel := range [][]*stats.Series{f.Time, f.Bandwidth, f.Slowdown} {
		fmt.Fprintln(&b, []string{"# time (s) vs bytes", "# bandwidth (GB/s) vs bytes", "# slowdown vs bytes"}[i])
		if err := plot.CSV(&b, "bytes", panel); err != nil {
			return err
		}
		fmt.Fprintln(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// SchemeSlowdownAt returns a scheme's slowdown at the sweep size
// closest to n bytes.
func (f *Figure) SchemeSlowdownAt(s core.Scheme, n int64) (float64, error) {
	for _, sd := range f.Slowdown {
		if sd.Label != s.String() {
			continue
		}
		if y, ok := sd.Nearest(float64(n)); ok {
			return y, nil
		}
		return 0, fmt.Errorf("figures: empty slowdown series for %v", s)
	}
	return 0, fmt.Errorf("figures: scheme %v not in figure", s)
}

// ratio is a/b, or 0 when b is not positive (nothing was measured).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// gbps is the bandwidth of moving n bytes in secs seconds.
func gbps(n, secs float64) float64 { return ratio(n, secs) / 1e9 }
