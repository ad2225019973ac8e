// Package figures regenerates the paper's evaluation artefacts: the
// four installation figures (each with time, bandwidth and slowdown
// panels over eight schemes, Figures 1–4) and the section-4 studies
// (eager limit §4.5, cache flushing §4.6, spacing/block size and
// node scaling §4.7, and the §2 cost-model factors).
//
// Every experiment has an identifier (E1…E10) mapped in DESIGN.md and
// recorded in EXPERIMENTS.md.
package figures

import (
	"fmt"
	"io"

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
	if _, err := fmt.Fprintf(w, "== %s ==\n\n", f.Title); err != nil {
		return err
	}
	panels := []struct {
		cfg    plot.Config
		series []*stats.Series
	}{
		{plot.Config{Title: "Time (sec)", XLabel: "message bytes", YLabel: "sec", LogX: true, LogY: true}, f.Time},
		{plot.Config{Title: "bwidth (GB/s)", XLabel: "message bytes", YLabel: "GB/s", LogX: true}, f.Bandwidth},
		{plot.Config{Title: "slowdown vs reference", XLabel: "message bytes", YLabel: "x", LogX: true, YMax: 10}, f.Slowdown},
	}
	for _, p := range panels {
		if err := plot.ASCII(w, p.cfg, p.series); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the three panels as CSV blocks separated by blank
// lines: time, bandwidth (GB/s), slowdown.
func (f *Figure) WriteCSV(w io.Writer) error {
	for i, panel := range [][]*stats.Series{f.Time, f.Bandwidth, f.Slowdown} {
		header := []string{"# time (s) vs bytes", "# bandwidth (GB/s) vs bytes", "# slowdown vs bytes"}[i]
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		if err := plot.CSV(w, "bytes", panel); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// SchemeSlowdownAt returns a scheme's slowdown at the sweep size
// closest to n bytes.
func (f *Figure) SchemeSlowdownAt(s core.Scheme, n int64) (float64, error) {
	idx := -1
	for i, sd := range f.Slowdown {
		if sd.Label == s.String() {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, fmt.Errorf("figures: scheme %v not in figure", s)
	}
	sd := f.Slowdown[idx]
	best, bestDist := 0.0, int64(-1)
	for i, x := range sd.X {
		d := int64(x) - n
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestDist, best = d, sd.Y[i]
		}
	}
	if bestDist < 0 {
		return 0, fmt.Errorf("figures: empty slowdown series for %v", s)
	}
	return best, nil
}
