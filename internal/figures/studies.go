package figures

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/stats"
)

// A Study is one experiment of the evaluation written as data: a grid
// of schemes over one axis measured once per variant, or the curves
// and notes its Measure hook fills, rendered as panels and checked
// against its claims.
type Study struct {
	ID    string // experiment identifier, "E5"
	Name  string // the cmd/figures -study name, "eager"
	Title string // header text, "eager limit study"
	// Detail appends facts to the header line; nil appends nothing.
	Detail func(r *Result) string

	Axis Axis
	// Sizes derives a size axis from the installation and the caller's
	// sweep; nil measures the sweep itself.
	Sizes func(p *perfmodel.Profile, sweep []int64) []int64
	// MaxReps caps the caller's repetitions; 0 keeps them.
	MaxReps int
	// Points and Bytes are the x values and the fixed payload of every
	// axis but the size axis.
	Points []float64
	Bytes  int64

	Schemes  []core.Scheme
	Variants []Variant // nil: one run with the caller's options
	// Metric is what one measured cell contributes to a series:
	// Seconds, NsPerByte or GBps.
	Metric func(harness.Measurement) float64
	// Measure replaces the harness grid: E9 runs pairs on split
	// communicators, E15–E21 drive their own transfers and worlds. It
	// fills the result's curves with add and its note panels with
	// printf.
	Measure func(r *Result, opt harness.Options) error

	Panels []Panel
	Claims []Claim
	// Spaced ends the output with a blank line.
	Spaced bool
}

// An Axis is what a study sweeps. Cell builds the workload at point x
// for an n-byte payload; a nil Cell is the message-size axis. Label is
// the x header of the study's tables.
type Axis struct {
	Label string
	Cell  func(x float64, n int64) core.Workload
}

// The axes of the section-4 studies.
var (
	SizeAxis   = Axis{Label: "bytes"}
	JitterAxis = Axis{Label: "jitter", Cell: func(j float64, n int64) core.Workload {
		w := core.ForBytes(n)
		w.Stride = 8 // wider gaps leave room for element-aligned jitter
		w.Jitter = j
		return w
	}}
	BlockAxis = Axis{Label: "blocklen", Cell: func(x float64, n int64) core.Workload {
		bl := int(x)
		// Density stays 1/2 as the blocks grow.
		return core.Workload{Count: int(n/core.ElemSize) / bl, BlockLen: bl, Stride: 2 * bl}
	}}
	PairAxis = Axis{Label: "pairs"}
)

// A Variant is one named run of a study's grid with an option or an
// installation changed; nil fields change nothing.
type Variant struct {
	Name    string
	Schemes []core.Scheme // nil: the study's schemes
	Opt     func(*harness.Options)
	Profile func(*perfmodel.Profile) *perfmodel.Profile
}

// The metrics of the study table; ratios to a scheme or a variant are
// Curves with Over set.
func Seconds(m harness.Measurement) float64   { return m.Time() }
func NsPerByte(m harness.Measurement) float64 { return m.Time() / float64(m.Bytes) * 1e9 }
func GBps(m harness.Measurement) float64      { return m.Bandwidth() / 1e9 }

// A Curve is one rendered series: Scheme, or the curve a Measure hook
// filled under Name, in the named Variant ("" is the first), divided
// point by point by Over when set — the ratio-to-a-curve metric.
type Curve struct {
	Label   string // "": the scheme's name or Name
	Scheme  core.Scheme
	Name    string
	Variant string
	Over    *Curve
}

// per is curve a over curve b, both filled under variant v.
func per(v, a, b string) Curve { return Curve{Name: a, Variant: v, Over: &Curve{Name: b, Variant: v}} }

// A Panel is one block of a study's output: an ASCII chart, a table
// over the axis, one line per measured cell of its curves, or the note
// a Measure hook printed under Variant. Nil Curves are the study's
// schemes; a curve without a variant takes the panel's.
type Panel struct {
	plot.Config
	Table, Note bool
	Cells       func(harness.Measurement) string
	Variant     string
	Curves      []Curve
}

// A Claim is one statement a study checks: a value read off the
// result, the bound it must meet, the benchmark metric reporting it,
// and the closing line printing it ("" prints nothing) — a printf
// format over Args, or over the value when Args is nil.
type Claim struct {
	Metric string
	Line   string
	Args   func(r *Result) []any
	Value  func(r *Result) float64
	Holds  func(v float64) bool
}

// A Result is a study measured on one installation.
type Result struct {
	*Study
	Profile *perfmodel.Profile
	opt     harness.Options // the caller's, repetitions capped
	sizes   []int64         // the size axis
	series  map[cell][]harness.Measurement
	y       map[cell]*stats.Series
	notes   map[string]string
}

type cell struct{ variant, name string }

// Run measures the study on one installation; sweep is the size axis
// of studies without their own. Each variant is one MeasureGrid on the
// size axis and one per point on any other, so every cell runs in the
// world it ran in when the output was pinned.
func (st *Study) Run(profileName string, sweep []int64, opt harness.Options) (*Result, error) {
	r := &Result{Study: st, series: map[cell][]harness.Measurement{}, y: map[cell]*stats.Series{}, notes: map[string]string{}}
	var err error
	if r.Profile, err = perfmodel.ByName(profileName); err != nil {
		return nil, err
	}
	r.sizes = sweep
	if st.Sizes != nil {
		r.sizes = st.Sizes(r.Profile, sweep)
	}
	if st.MaxReps > 0 {
		opt.Reps = min(opt.Reps, st.MaxReps)
	}
	r.opt = opt
	if st.Measure != nil {
		return r, st.Measure(r, opt)
	}
	for _, v := range st.variants() {
		p, o := r.Profile, opt
		if v.Profile != nil {
			p = v.Profile(p)
		}
		if v.Opt != nil {
			v.Opt(&o)
		}
		schemes := st.schemes(v)
		grid := make([][]harness.Measurement, len(schemes))
		if st.Axis.Cell == nil {
			if grid, err = harness.MeasureGrid(p, schemes, harness.Workloads(r.sizes, o), o); err != nil {
				return nil, err
			}
		}
		for _, x := range st.Points {
			w := st.Axis.Cell(x, st.Bytes)
			w.Virtual = st.Bytes > o.MaxRealBytes
			g, err := harness.MeasureGrid(p, schemes, []core.Workload{w}, o)
			if err != nil {
				return nil, err
			}
			for i := range g {
				grid[i] = append(grid[i], g[i][0])
			}
		}
		for i, s := range schemes {
			r.series[cell{v.Name, s.String()}] = grid[i]
			for j, m := range grid[i] {
				x := float64(m.Bytes)
				if st.Axis.Cell != nil {
					x = st.Points[j]
				}
				r.add(Curve{Scheme: s, Variant: v.Name}, x, st.Metric(m))
			}
		}
	}
	return r, nil
}

func (st *Study) variants() []Variant {
	if len(st.Variants) == 0 {
		return []Variant{{}}
	}
	return st.Variants
}

func (st *Study) schemes(v Variant) []core.Scheme {
	if v.Schemes != nil {
		return v.Schemes
	}
	return st.Schemes
}

func (r *Result) key(c Curve) cell {
	if c.Variant == "" {
		c.Variant = r.variants()[0].Name
	}
	if c.Name == "" {
		c.Name = c.Scheme.String()
	}
	return cell{c.Variant, c.Name}
}

// add appends the point (x, y) to a curve.
func (r *Result) add(c Curve, x, y float64) {
	k := r.key(c)
	if r.y[k] == nil {
		r.y[k] = &stats.Series{Label: k.name}
	}
	r.y[k].Append(x, y)
}

// printf appends text to the note of a variant.
func (r *Result) printf(variant, format string, args ...any) {
	r.notes[variant] += fmt.Sprintf(format, args...)
}

// Series returns a curve's points.
func (r *Result) Series(c Curve) *stats.Series {
	s := *r.y[r.key(c)]
	if c.Label != "" {
		s.Label = c.Label
	}
	if c.Over != nil {
		return stats.Ratio(s.Label, &s, r.Series(*c.Over))
	}
	return &s
}

// Render writes the header, the panels and the closing claim lines.
func (r *Result) Render(w io.Writer) error {
	header := r.ID + " " + r.Title + " — " + r.Profile.Name
	if r.Detail != nil {
		header += r.Detail(r)
	}
	fmt.Fprintf(w, "== %s ==\n", header)
	for _, p := range r.Panels {
		if !p.Table && p.Cells == nil {
			fmt.Fprintln(w) // charts and notes sit one blank line under the header
			break
		}
	}
	for _, p := range r.Panels {
		if (p.Note || p.Cells != nil) && p.Title != "" {
			fmt.Fprintln(w, p.Title)
		}
		if p.Note {
			io.WriteString(w, r.notes[p.Variant])
			continue
		}
		curves := p.Curves
		if curves == nil {
			for _, s := range r.Schemes {
				curves = append(curves, Curve{Scheme: s})
			}
		}
		series := make([]*stats.Series, len(curves))
		for i, c := range curves {
			if c.Variant == "" {
				c.Variant = p.Variant
			}
			if p.Cells != nil {
				for _, m := range r.series[r.key(c)] {
					fmt.Fprintln(w, p.Cells(m))
				}
			}
			series[i] = r.Series(c)
		}
		var err error
		switch {
		case p.Cells != nil:
		case p.Table:
			err = plot.Table(w, r.Axis.Label, series)
		default:
			err = plot.ASCII(w, p.Config, series)
		}
		if err != nil {
			return err
		}
	}
	for _, c := range r.Claims {
		if c.Line == "" {
			continue
		}
		args := []any{c.Value(r)}
		if c.Args != nil {
			args = c.Args(r)
		}
		fmt.Fprintf(w, c.Line, args...)
	}
	if r.Spaced {
		fmt.Fprintln(w)
	}
	return nil
}

// last is a curve's value at the largest axis point (0 when empty).
func (r *Result) last(c Curve) float64 {
	s := r.Series(c)
	if s.Len() == 0 {
		return 0
	}
	return s.Y[s.Len()-1]
}

// at is a curve's value at the axis point nearest x.
func (r *Result) at(c Curve, x float64) float64 {
	y, _ := r.Series(c).Nearest(x)
	return y
}

// growth is a curve's last value over its first.
func (r *Result) growth(c Curve) float64 {
	return r.last(c) / r.Series(c).Y[0]
}

func over(a, b core.Scheme) Curve { return Curve{Scheme: a, Over: &Curve{Scheme: b}} }

func above(lo float64) func(float64) bool   { return func(v float64) bool { return v > lo } }
func atMost(hi float64) func(float64) bool  { return func(v float64) bool { return v <= hi } }
func atLeast(lo float64) func(float64) bool { return func(v float64) bool { return v >= lo } }
func within(lo, hi float64) func(float64) bool {
	return func(v float64) bool { return v >= lo && v <= hi }
}

// checkBytes is where E10 reads the cost-model factors.
const checkBytes = 100_000_000

// Studies returns the study table: the ping-pong per scheme of the
// paper's §3.2 protocol, the §4.5–4.7 ablations (E5–E9), the §2
// cost-model factors (E10), the NIC-pipelining what-if of the paper's
// reference [2] (E11), the pack-plan compiler (E12) and the studies of
// this implementation's engines on the virtual clock (E15–E18, E20 and
// E21).
func Studies() []*Study {
	warmSpeedup := Curve{Label: "copying flush/warm", Scheme: core.Copying, Variant: "flushed",
		Over: &Curve{Scheme: core.Copying, Variant: "warm"}}
	measured := Curve{Label: "vector type (measured behaviour)", Scheme: core.VectorType, Over: &Curve{Scheme: core.Reference}}
	pipelined := Curve{Label: "vector type (NIC pipelining, ref [2])", Scheme: core.VectorType, Variant: "pipelined",
		Over: &Curve{Scheme: core.Reference}}
	compiledSpeedup := Curve{Label: "speedup", Scheme: core.PackCompiled, Over: &Curve{Scheme: core.PackVector}}
	flush := func(on bool) func(*harness.Options) {
		return func(o *harness.Options) { o.FlushCache = on }
	}
	return []*Study{{
		ID: "§3.2", Name: "pingpong", Title: "ping-pong per scheme",
		Detail:  func(r *Result) string { return fmt.Sprintf(" (%d reps, flush %v)", r.opt.Reps, r.opt.FlushCache) },
		Axis:    SizeAxis,
		Schemes: core.Schemes(),
		Metric:  Seconds,
		Panels: []Panel{{Config: plot.Config{Title: fmt.Sprintf("%-12s %14s %14s %14s %12s %10s %9s",
			"scheme", "bytes", "time(s)", "min(s)", "bw(GB/s)", "dismissed", "verified")},
			Cells: func(m harness.Measurement) string {
				return fmt.Sprintf("%-12s %14d %14.6g %14.6g %12.3f %10d %9v",
					m.Scheme, m.Bytes, m.Time(), m.Summary.Min, m.Bandwidth()/1e9, m.Dismissed, m.Verified)
			}}},
		Spaced: true,
	}, {
		ID: "E5", Name: "eager", Title: "eager limit study",
		Detail: func(r *Result) string { return fmt.Sprintf(" (limit %d bytes)", r.Profile.EagerLimit) },
		Axis:   SizeAxis, Sizes: eagerSizes,
		Schemes: []core.Scheme{core.Reference, core.VectorType, core.PackVector},
		// §4.5 sets the eager limit over the maximum message size.
		Variants: []Variant{{Name: "default"}, {Name: "raised", Profile: func(p *perfmodel.Profile) *perfmodel.Profile {
			raised, sizes := *p, eagerSizes(p, nil)
			raised.EagerLimit = sizes[len(sizes)-1] * 4
			return &raised
		}}},
		// Per-byte time exposes the drop at the protocol switch better
		// than absolute time.
		Metric: NsPerByte,
		Panels: []Panel{
			{Config: plot.Config{Title: "ns per byte, default eager limit", XLabel: "message bytes", YLabel: "ns/B", LogX: true, LogY: true}, Variant: "default"},
			{Config: plot.Config{Title: "ns per byte, eager limit raised over max size", XLabel: "message bytes", YLabel: "ns/B", LogX: true, LogY: true}, Variant: "raised"},
		},
		// §4.5: raising the limit "did not appreciably change the
		// results for large messages".
		Claims: []Claim{{Metric: "raisedLimitΔ(%)",
			Line: "\nreference time change at the largest size from raising the limit: %.2f%% (paper: not appreciable)\n",
			Value: func(r *Result) float64 {
				a, b := r.last(Curve{Scheme: core.Reference}), r.last(Curve{Scheme: core.Reference, Variant: "raised"})
				return 100 * math.Abs((b-a)/a)
			},
			Holds: atMost(5)}},
	}, {
		ID: "E6", Name: "cache", Title: "cache flushing study",
		Axis:     SizeAxis,
		Sizes:    fixed(harness.LogSizes(10_000, 20_000_000, 2)...),
		Schemes:  []core.Scheme{core.Copying, core.VectorType, core.PackVector},
		Variants: []Variant{{Name: "flushed", Opt: flush(true)}, {Name: "warm", Opt: flush(false)}},
		Metric:   Seconds,
		Panels: []Panel{
			{Config: plot.Config{Title: "time, caches flushed between ping-pongs", XLabel: "bytes", YLabel: "sec", LogX: true, LogY: true}, Variant: "flushed"},
			{Config: plot.Config{Title: "time, caches left warm", XLabel: "bytes", YLabel: "sec", LogX: true, LogY: true}, Variant: "warm"},
			{Config: plot.Config{Title: "copying speedup from warm caches (x)", XLabel: "bytes", YLabel: "x", LogX: true},
				Curves: []Curve{warmSpeedup}},
		},
		// §4.6: skipping the flush "had a clear positive effect on
		// intermediate size messages".
		Claims: []Claim{{Metric: "warmSpeedup(x)",
			Value: func(r *Result) float64 { return stats.Max(r.Series(warmSpeedup).Y) },
			Holds: above(1.1)}},
	}, {
		ID: "E7", Name: "spacing", Title: "spacing irregularity study",
		Axis: JitterAxis, Points: []float64{0, 0.25, 0.5, 0.75, 1.0}, Bytes: 8 << 20,
		Schemes: []core.Scheme{core.Copying, core.VectorType},
		Metric:  Seconds,
		Panels:  []Panel{{Table: true}},
		// §4.7: less regular spacing is slower (fewer prefetch streams).
		Claims: []Claim{{Metric: "jitterPenalty(x)",
			Value: func(r *Result) float64 { return r.growth(Curve{Scheme: core.VectorType}) },
			Holds: above(1)}},
		Spaced: true,
	}, {
		ID: "E8", Name: "blocks", Title: "block size study",
		Axis: BlockAxis, Points: []float64{1, 2, 4, 8, 16, 32, 64}, Bytes: 8 << 20,
		Schemes: []core.Scheme{core.Copying, core.VectorType},
		Metric:  Seconds,
		Panels:  []Panel{{Table: true}},
		// §4.7: larger blocks are faster (higher cache-line use).
		Claims: []Claim{{Metric: "bigBlockGain(x)",
			Value: func(r *Result) float64 { return 1 / r.growth(Curve{Scheme: core.VectorType}) },
			Holds: above(1)}},
	}, {
		ID: "E9", Name: "nodes", Title: "node scaling study",
		Detail: func(r *Result) string { return fmt.Sprintf(" (%d bytes per pair)", r.Bytes) },
		Axis:   PairAxis, Points: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Bytes: 1 << 20,
		Schemes: []core.Scheme{core.VectorType},
		Measure: measurePairs,
		Panels:  []Panel{{Table: true, Curves: []Curve{{Label: "pair-0 ping-pong time", Scheme: core.VectorType}}}},
		// §4.7: "no performance degradation results from having all
		// processes on a node communicate".
		Claims: []Claim{{Metric: "pairDegradation(%)",
			Line: "\nworst pair-0 degradation across configurations: %.2f%% (paper: none)\n",
			Value: func(r *Result) float64 {
				ts := r.Series(Curve{Scheme: core.VectorType}).Y
				worst := 0.0
				for _, t := range ts[1:] {
					worst = max(worst, (t-ts[0])/ts[0])
				}
				return 100 * worst
			},
			Holds: atMost(1)}},
	}, {
		ID: "E10", Name: "check", Title: "cost-model factors",
		Detail: func(*Result) string { return fmt.Sprintf(" at %d bytes", checkBytes) },
		Axis:   SizeAxis,
		Sizes:  fixed(checkBytes),
		Schemes: []core.Scheme{core.Reference, core.Copying, core.VectorType, core.Buffered,
			core.PackElement, core.PackVector},
		Metric: Seconds,
		Claims: []Claim{
			factor("copy/ref(x)", "copying/reference", "§2.2: ≈3", core.Copying, core.Reference, within(2.3, 4.2)),
			factor("packv/copy(x)", "packing(v)/copying", "§4.3: ≈1", core.PackVector, core.Copying, within(0.95, 1.05)),
			factor("vector/copy(x)", "vector/copying", "§4.1: >1 at large sizes", core.VectorType, core.Copying, above(1)),
			factor("buffered/copy(x)", "buffered/copying", "§4.2: >1", core.Buffered, core.Copying, above(1)),
			factor("packe/copy(x)", "packing(e)/copying", "§2.6: ≫1", core.PackElement, core.Copying, above(2)),
		},
		Spaced: true,
	}, {
		// §2.3 observes that with enough NIC support a derived-type
		// send could pipeline like the reference, "but in practice we
		// don't see this performance" (the paper's reference [2]).
		ID: "E11", Name: "what-if", Title: "NIC datatype-pipelining what-if",
		Axis:    SizeAxis,
		Schemes: []core.Scheme{core.Reference, core.VectorType},
		Variants: []Variant{{Name: "measured"},
			{Name: "pipelined", Schemes: []core.Scheme{core.VectorType}, Profile: (*perfmodel.Profile).WithPipelining}},
		Metric: Seconds,
		Panels: []Panel{
			{Config: plot.Config{Title: "vector-type slowdown vs reference, with and without pipelining",
				XLabel: "message bytes", YLabel: "x", LogX: true, YMax: 10}, Curves: []Curve{measured, pipelined}},
			{Table: true, Curves: []Curve{measured, pipelined}},
		},
		Claims: []Claim{{Metric: "pipeliningGain@1GB(x)",
			Line:  "pipelining would recover %.1fx at the largest size (§2.3, ref [2])\n",
			Value: func(r *Result) float64 { return r.last(measured) / r.last(pipelined) },
			Holds: above(2)}},
		Spaced: true,
	}, {
		// Compiled against interpreted packing: packing(c) runs the
		// compiled pack plan, packing(v) interprets the type at pack
		// time.
		ID: "E12", Name: "plan", Title: "pack-plan compiler study",
		Axis:    SizeAxis,
		Schemes: []core.Scheme{core.PackVector, core.PackCompiled},
		Metric:  GBps,
		Panels: []Panel{
			{Config: plot.Config{Title: "pack bandwidth, interpreted vs compiled (GB/s)", XLabel: "message bytes", YLabel: "GB/s", LogX: true}},
			{Config: plot.Config{Title: "compiled speedup (x)", XLabel: "message bytes", YLabel: "x", LogX: true},
				Curves: []Curve{compiledSpeedup}},
			{Config: plot.Config{Title: "kernel attribution per size (compiled sweep):"},
				Cells:  func(m harness.Measurement) string { return fmt.Sprintf("  %12d B  %v", m.Bytes, m.PlanStats) },
				Curves: []Curve{{Scheme: core.PackCompiled}}},
		},
		Claims: []Claim{{Metric: "compiledSpeedup(x)",
			Line:  "compiled packing is %.2fx interpreted at the largest size\n",
			Value: func(r *Result) float64 { return r.last(compiledSpeedup) },
			Holds: above(1)}},
		Spaced: true,
	}, haloStudy(), pipelineStudy(), guidelinesStudy(), chaosStudy(), scaleStudy(), chaosScaleStudy()}
}

// fixed is a size axis that ignores the installation and the sweep.
func fixed(sizes ...int64) func(*perfmodel.Profile, []int64) []int64 {
	return func(*perfmodel.Profile, []int64) []int64 { return sizes }
}

// factor is one E10 row: the time ratio a/b the cost model predicts.
func factor(metric, name, paper string, a, b core.Scheme, holds func(float64) bool) Claim {
	return Claim{Metric: metric, Line: fmt.Sprintf("  %-18s  = %%5.2f   (paper %s)\n", name, paper),
		Value: func(r *Result) float64 { return r.last(over(a, b)) }, Holds: holds}
}

// eagerSizes brackets the installation's eager limit.
func eagerSizes(p *perfmodel.Profile, _ []int64) []int64 {
	var sizes []int64
	for _, f := range []float64{0.25, 0.5, 0.8, 1.0, 1.2, 1.6, 2.0, 2.4, 4, 8, 64, 1024} {
		if n := int64(f*float64(p.EagerLimit)) / 8 * 8; n >= 8 {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

// measurePairs is E9: 1…N concurrent ping-pong pairs on split
// communicators of one world, timing pair 0.
func measurePairs(r *Result, opt harness.Options) error {
	for _, x := range r.Points {
		var t0 float64
		w := core.ForBytes(r.Bytes)
		w.Virtual = true
		_, err := mpi.Measure(mpi.World{Ranks: 2 * int(x), Profile: r.Profile}, func(c *mpi.Comm) error {
			pair, err := c.Split(c.Rank()/2, c.Rank()%2)
			if err != nil {
				return err
			}
			runner, err := core.NewRunner(core.VectorType)
			if err != nil {
				return err
			}
			if err := runner.Setup(pair, w, 1-pair.Rank()); err != nil {
				return err
			}
			pair.Barrier()
			start := pair.Wtime()
			for rep := 0; rep < opt.Reps; rep++ {
				if pair.Rank() == 0 {
					if err := runner.Ping(); err != nil {
						return err
					}
				} else if err := runner.Pong(); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				t0 = (pair.Wtime() - start) / float64(opt.Reps)
			}
			return runner.Teardown()
		})
		if err != nil {
			return err
		}
		r.add(Curve{Scheme: core.VectorType}, x, t0)
	}
	return nil
}
