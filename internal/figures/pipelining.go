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

// PipeliningStudy is E11: the what-if of the paper's reference [2]
// (Li et al., user-mode memory registration). §2.3 observes that with
// enough NIC support a derived-type send could pipeline reads and
// sends "similarly to the reference case", but "in practice we don't
// see this performance". The study measures the vector-type scheme
// with and without the capability and compares both against the
// reference rate.
type PipeliningStudy struct {
	Profile *perfmodel.Profile
	Sizes   []int64
	// Slowdowns vs the contiguous reference.
	Baseline  *stats.Series // vector type, measured-installation behaviour
	Pipelined *stats.Series // vector type under NIC pipelining
}

// BuildPipeliningStudy measures the ablation on one installation.
func BuildPipeliningStudy(profileName string, sizes []int64, opt harness.Options) (*PipeliningStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	st := &PipeliningStudy{Profile: prof, Sizes: sizes}
	workloads := harness.Workloads(sizes, opt)

	series := func(ms []harness.Measurement) *stats.Series {
		s := &stats.Series{}
		for _, m := range ms {
			s.Append(float64(m.Bytes), m.Time())
		}
		return s
	}

	measured, err := harness.MeasureGrid(prof, []core.Scheme{core.Reference, core.VectorType}, workloads, opt)
	if err != nil {
		return nil, err
	}
	withNIC, err := harness.MeasureGrid(prof.WithPipelining(), []core.Scheme{core.VectorType}, workloads, opt)
	if err != nil {
		return nil, err
	}
	ref, base, piped := series(measured[0]), series(measured[1]), series(withNIC[0])
	st.Baseline = stats.Ratio("vector type (measured behaviour)", base, ref)
	st.Pipelined = stats.Ratio("vector type (NIC pipelining, ref [2])", piped, ref)
	return st, nil
}

// Render prints the ablation.
func (st *PipeliningStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E11 NIC datatype-pipelining what-if — %s ==\n\n", st.Profile.Name)
	if err := plot.ASCII(w, plot.Config{
		Title:  "vector-type slowdown vs reference, with and without pipelining",
		XLabel: "message bytes", YLabel: "x", LogX: true, YMax: 10,
	}, []*stats.Series{st.Baseline, st.Pipelined}); err != nil {
		return err
	}
	return plot.Table(w, "bytes", []*stats.Series{st.Baseline, st.Pipelined})
}

// LargeGain returns baseline/pipelined slowdown at the largest size:
// how much the reference-[2] capability would recover.
func (st *PipeliningStudy) LargeGain() float64 {
	if st.Baseline.Len() == 0 || st.Pipelined.Len() == 0 {
		return 0
	}
	a := st.Baseline.Y[st.Baseline.Len()-1]
	b := st.Pipelined.Y[st.Pipelined.Len()-1]
	if b == 0 {
		return 0
	}
	return a / b
}
