// Package plot renders the benchmark's result series as ASCII charts
// (for terminals and logs) and CSV (for external plotting). The three
// panels of each paper figure — time, bandwidth, slowdown against
// message size — are log-log, log-linear and log-linear respectively,
// matching the originals.
package plot

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Markers assigns one plot character per series, in legend order.
var Markers = []byte{'r', 'c', 'b', 'v', 's', 'o', 'e', 'p', '1', '2', '3', '4', '5', '6'}

// The plot area of an ASCII chart, in columns and rows.
const (
	width  = 68
	height = 20
)

// Config controls an ASCII chart.
type Config struct {
	Title  string
	XLabel string
	YLabel string
	LogX   bool // log10 x axis
	LogY   bool // log10 y axis
	// YMax clips the y axis (the paper clips the slowdown panel at
	// 10); 0 means auto.
	YMax float64
}

// ASCII renders the series into w as a character grid with axes and a
// legend. Points landing on the same cell keep the first series'
// marker (legend order is priority order, so the reference curve stays
// visible).
func ASCII(w io.Writer, cfg Config, series []*stats.Series) error {
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			x, y := cfg.tx(s.X[i]), cfg.ty(s.Y[i], cfg.YMax)
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if xmin > xmax || ymin > ymax {
		_, err := fmt.Fprintf(w, "%s: no data\n", cfg.Title)
		return err
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si := len(series) - 1; si >= 0; si-- {
		s := series[si]
		marker := Markers[si%len(Markers)]
		for i := range s.X {
			x, y := cfg.tx(s.X[i]), cfg.ty(s.Y[i], cfg.YMax)
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			col := int((x - xmin) / (xmax - xmin) * float64(width-1))
			row := height - 1 - int((y-ymin)/(ymax-ymin)*float64(height-1))
			grid[row][col] = marker
		}
	}
	if cfg.Title != "" {
		if _, err := fmt.Fprintf(w, "  %s\n", cfg.Title); err != nil {
			return err
		}
	}
	topLabel, botLabel := cfg.fmtY(ymax), cfg.fmtY(ymin)
	labelW := len(topLabel)
	if len(botLabel) > labelW {
		labelW = len(botLabel)
	}
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", labelW)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", labelW, topLabel)
		case height - 1:
			label = fmt.Sprintf("%*s", labelW, botLabel)
		}
		if _, err := fmt.Fprintf(w, "%s |%s|\n", label, string(grid[r])); err != nil {
			return err
		}
	}
	xl := cfg.fmtX(xmin)
	xr := cfg.fmtX(xmax)
	pad := width - len(xl) - len(xr)
	if pad < 1 {
		pad = 1
	}
	if _, err := fmt.Fprintf(w, "%s  %s%s%s\n", strings.Repeat(" ", labelW), xl, strings.Repeat(" ", pad), xr); err != nil {
		return err
	}
	// Legend.
	var b strings.Builder
	for si, s := range series {
		fmt.Fprintf(&b, "  %c=%s", Markers[si%len(Markers)], s.Label)
	}
	axes := ""
	if cfg.XLabel != "" || cfg.YLabel != "" {
		axes = fmt.Sprintf("  [x: %s, y: %s]", cfg.XLabel, cfg.YLabel)
	}
	_, err := fmt.Fprintf(w, "%s%s\n", b.String(), axes)
	return err
}

func (cfg Config) tx(x float64) float64 {
	if cfg.LogX {
		if x <= 0 {
			return math.NaN()
		}
		return math.Log10(x)
	}
	return x
}

func (cfg Config) ty(y, ymax float64) float64 {
	if ymax > 0 && y > ymax {
		y = ymax
	}
	if cfg.LogY {
		if y <= 0 {
			return math.NaN()
		}
		return math.Log10(y)
	}
	return y
}

func (cfg Config) fmtX(v float64) string {
	if cfg.LogX {
		return fmt.Sprintf("1e%.1f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

func (cfg Config) fmtY(v float64) string {
	if cfg.LogY {
		return fmt.Sprintf("1e%.1f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// CSV writes the series as a table: the union of x values in the first
// column, one column per series label, empty cells where a series has
// no point. Columns appear in series order.
func CSV(w io.Writer, xHeader string, series []*stats.Series) error {
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xsSet[x] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	cols := make([]string, 0, len(series)+1)
	cols = append(cols, xHeader)
	for _, s := range series {
		cols = append(cols, s.Label)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, x := range xs {
		row := make([]string, 0, len(series)+1)
		row = append(row, fmt.Sprintf("%g", x))
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				row = append(row, fmt.Sprintf("%g", y))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the series as an aligned text table, one row per x.
func Table(w io.Writer, xHeader string, series []*stats.Series) error {
	var b strings.Builder
	if err := CSV(&b, xHeader, series); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	rows := make([][]string, len(lines))
	widths := []int{}
	for i, line := range lines {
		rows[i] = strings.Split(line, ",")
		for j, cell := range rows[i] {
			if j >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for j, cell := range row {
			if _, err := fmt.Fprintf(w, "%-*s  ", widths[j], cell); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
