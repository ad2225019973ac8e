package figures

import (
	"fmt"
	"io"

	"repro/internal/guidelines"
)

// GuidelinesStudy is E17: the performance-guidelines verifier run as a
// report. The full rule table sweeps one installation's grid, each
// cell printed with both measured sides, its ratio and the PlanStats
// attribution of the bounded engine; violations are diffed against the
// checked-in waiver baseline exactly as the CI gate does, and a final
// self-tuning panel shows the calibrated vs observed-fit recommender
// side by side — the loop that makes acting on a violated guideline
// structurally impossible.
type GuidelinesStudy struct {
	Report   *guidelines.Report
	Baseline *guidelines.Baseline
	// Fresh are the gate's findings: violations that are neither waived
	// nor within slack of their waived ratio. Empty means the study
	// would pass CI.
	Fresh []guidelines.Result
	// Tuned is the self-tuning demonstration over the first layout
	// family of the sweep grid.
	Tuned []guidelines.TunedChoice
}

// Clean reports whether the study would pass the CI gate.
func (st *GuidelinesStudy) Clean() bool { return len(st.Fresh) == 0 }

// BuildGuidelinesStudy sweeps the full rule grid on one installation
// and closes the self-tuning loop on its canonical layout family. The
// sweep always runs at the default grid's repetition count — the
// conditions the waiver baseline was recorded under — so the gate
// verdict matches CI: at lower rep counts the unamortised first-round
// plan-compile cost shifts ratios enough to flip borderline cells.
func BuildGuidelinesStudy(profile string) (*GuidelinesStudy, error) {
	cfg := guidelines.DefaultConfig()
	cfg.Profiles = []string{profile}
	rp, err := guidelines.Sweep(cfg)
	if err != nil {
		return nil, err
	}
	base := guidelines.LoadBaseline()
	tuned, err := guidelines.SelfTune(profile, cfg.Layouts[0], cfg.Sizes, cfg.Reps)
	if err != nil {
		return nil, err
	}
	return &GuidelinesStudy{
		Report:   rp,
		Baseline: base,
		Fresh:    base.Gate(rp),
		Tuned:    tuned,
	}, nil
}

// Render prints the rule tables, the violation verdicts against the
// baseline, the self-tuning panel, and the gate verdict.
func (st *GuidelinesStudy) Render(w io.Writer) error {
	profile := "?"
	if len(st.Report.Results) > 0 {
		profile = st.Report.Results[0].Profile
	}
	fmt.Fprintf(w, "== E17 performance-guidelines verifier — %s (tolerance %.2f, virtual time) ==\n\n",
		profile, st.Report.Tolerance)
	byRule := st.Report.ByRule()
	for _, rule := range guidelines.Rules() {
		cells := byRule[rule]
		if len(cells) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s:\n", rule)
		for _, r := range cells {
			verdict := "ok"
			if r.Violated {
				verdict = "VIOLATED"
				if _, ok := st.Baseline.Waived(r.Key()); ok {
					verdict = "violated (waived)"
				}
			}
			fmt.Fprintf(w, "  %-8s %10d B  ranks %d  %-16s %9.3g s  vs %-22s %9.3g s  ratio %.3f  %s\n",
				r.Layout, r.Bytes, r.Ranks, r.LhsName, r.Lhs, r.RhsName, r.Rhs, r.Ratio, verdict)
			fmt.Fprintf(w, "           lhs plan: %s\n", r.Attribution())
		}
		fmt.Fprintln(w)
	}

	viol := st.Report.Violations()
	fmt.Fprintf(w, "violations: %d of %d cells (%d waived in baseline)\n",
		len(viol), len(st.Report.Results), st.Baseline.Len())
	for _, r := range viol {
		status := "FRESH — would fail the CI gate"
		if waivedRatio, ok := st.Baseline.Waived(r.Key()); ok {
			status = fmt.Sprintf("waived at %.3f", waivedRatio)
			if r.Ratio > waivedRatio*guidelines.BaselineSlack {
				status += " — WORSENED past slack, would fail the CI gate"
			}
		}
		fmt.Fprintf(w, "  %s  ratio %.3f  [%s]\n", r.Key(), r.Ratio, status)
	}
	gate := "PASS"
	if !st.Clean() {
		gate = "FAIL"
	}
	fmt.Fprintf(w, "gate vs baseline: %s\n\n", gate)

	fmt.Fprintf(w, "self-tuned recommender (observed virtual-clock fits fed back via memsim.ObservedHierarchy):\n")
	for _, tc := range st.Tuned {
		note := "guideline satisfied"
		if !tc.Satisfied(st.Report.Tolerance) {
			note = "GUIDELINE VIOLATED"
		}
		change := ""
		if tc.Tuned != tc.Calibrated {
			change = fmt.Sprintf(" (calibrated picked %s, %.3g s)", tc.Calibrated, tc.CalibratedTime)
		}
		fmt.Fprintf(w, "  %-8s %10d B  tuned -> %-16s %9.3g s  best %-16s %9.3g s  %s%s\n",
			tc.Layout, tc.Bytes, tc.Tuned, tc.TunedTime, tc.Best, tc.BestTime, note, change)
	}
	fmt.Fprintln(w)
	verdict := "passes"
	if !st.Clean() {
		verdict = "FAILS"
	}
	fmt.Fprintf(w, "the guidelines gate %s against the checked-in baseline (%d waived cells)\n\n", verdict, st.Baseline.Len())
	return nil
}
