// Benchmarks regenerating the paper's figures and the study table:
//
//	BenchmarkFigure1SkxImpi      paper Figure 1  (E1)
//	BenchmarkFigure2SkxMvapich   paper Figure 2  (E2)
//	BenchmarkFigure3Ls5Cray      paper Figure 3  (E3)
//	BenchmarkFigure4KnlImpi      paper Figure 4  (E4)
//	BenchmarkStudy/E5-eager …    one sub-benchmark per study (E5–E12)
//
// The figure benchmarks report the paper's headline numbers as custom
// metrics (slowdowns at 1 GB relative to the contiguous reference) and
// the study benchmarks each claim's value, so `go test -bench=.`
// doubles as a reproduction report. Absolute wall time of a benchmark
// iteration is the cost of simulating the sweep, not the simulated
// time itself.
package repro_test

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/harness"
)

// benchOpts keeps the sweeps affordable inside the benchmark loop:
// model timing is deterministic, so two repetitions measure the same
// thing as the paper's twenty.
func benchOpts() harness.Options {
	o := harness.DefaultOptions()
	o.Reps = 2
	o.MaxRealBytes = 1 << 20
	return o
}

func benchFigure(b *testing.B, profile string) {
	sizes := figures.DefaultSizes(2)
	opt := benchOpts()
	var fig *figures.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = figures.Build(profile, sizes, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	const n = 1_000_000_000
	for _, s := range []core.Scheme{core.Copying, core.VectorType, core.OneSided, core.PackVector, core.PackElement} {
		sd, err := fig.SchemeSlowdownAt(s, n)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sd, strings.ReplaceAll(s.String(), " ", "-")+"@1GB(x)")
	}
}

func BenchmarkFigure1SkxImpi(b *testing.B)    { benchFigure(b, "skx-impi") }
func BenchmarkFigure2SkxMvapich(b *testing.B) { benchFigure(b, "skx-mvapich") }
func BenchmarkFigure3Ls5Cray(b *testing.B)    { benchFigure(b, "ls5-cray") }
func BenchmarkFigure4KnlImpi(b *testing.B)    { benchFigure(b, "knl-impi") }

// BenchmarkStudy runs every row of the study table and reports each
// claim's value under the claim's metric name. The size-axis studies
// that follow the caller's sweep (the ping-pong table, E11, E12)
// measure 10⁶, 10⁸ and 10⁹ bytes.
func BenchmarkStudy(b *testing.B) {
	sweep := []int64{1_000_000, 100_000_000, 1_000_000_000}
	for _, st := range figures.Studies() {
		b.Run(st.ID+"-"+st.Name, func(b *testing.B) {
			var r *figures.Result
			for i := 0; i < b.N; i++ {
				var err error
				if r, err = st.Run("skx-impi", sweep, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range st.Claims {
				b.ReportMetric(c.Value(r), c.Metric)
			}
		})
	}
}

// BenchmarkSingleMeasurement prices one harness cell: useful when
// profiling the simulator itself.
func BenchmarkSingleMeasurement(b *testing.B) {
	prof, err := repro.ProfileByName("skx-impi")
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOpts()
	w := repro.WorkloadForBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Measure(prof, repro.PackVector, w, opt); err != nil {
			b.Fatal(err)
		}
	}
}
