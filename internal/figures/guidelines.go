package figures

import (
	"fmt"

	"repro/internal/guidelines"
	"repro/internal/harness"
)

// guidelinesStudy is E17: the performance-guidelines verifier run as a
// report. The full rule table sweeps one installation's grid, each
// cell printed with both measured sides, its ratio and the PlanStats
// attribution of the bounded engine; violations are diffed against the
// checked-in waiver baseline exactly as the CI gate does, and a final
// self-tuning panel shows the calibrated vs observed-fit recommender
// side by side — the loop that makes acting on a violated guideline
// structurally impossible. The fresh curve counts the gate's findings:
// violations neither waived nor within slack of their waived ratio.
func guidelinesStudy() *Study {
	return &Study{
		ID: "E17", Name: "guidelines", Title: "performance-guidelines verifier",
		Detail: func(*Result) string {
			return fmt.Sprintf(" (tolerance %.2f, virtual time)", guidelines.Tolerance)
		},
		Measure: measureGuidelines,
		Panels:  []Panel{{Note: true}},
		Claims: []Claim{{Metric: "freshViolations",
			Line: "the guidelines gate %s against the checked-in baseline (%d waived cells)\n",
			Args: func(r *Result) []any {
				verdict := "passes"
				if r.last(Curve{Name: "fresh"}) > 0 {
					verdict = "FAILS"
				}
				return []any{verdict, int(r.last(Curve{Name: "waived"}))}
			},
			Value: func(r *Result) float64 { return r.last(Curve{Name: "fresh"}) },
			Holds: atMost(0)}},
		Spaced: true,
	}
}

// measureGuidelines sweeps the full rule grid on one installation and
// closes the self-tuning loop on its canonical layout family. The
// sweep always runs at the default grid's repetition count — the
// conditions the waiver baseline was recorded under — so the gate
// verdict matches CI: at lower rep counts the unamortised first-round
// plan-compile cost shifts ratios enough to flip borderline cells.
func measureGuidelines(r *Result, _ harness.Options) error {
	cfg := guidelines.DefaultConfig()
	cfg.Profiles = []string{r.Profile.Name}
	rp, err := guidelines.Sweep(cfg)
	if err != nil {
		return err
	}
	base := guidelines.LoadBaseline()
	tuned, err := guidelines.SelfTune(r.Profile.Name, cfg.Layouts[0], cfg.Sizes, cfg.Reps)
	if err != nil {
		return err
	}
	fresh := base.Gate(rp)
	r.add(Curve{Name: "fresh"}, 0, float64(len(fresh)))
	r.add(Curve{Name: "waived"}, 0, float64(base.Len()))

	byRule := rp.ByRule()
	for _, rule := range guidelines.Rules() {
		cells := byRule[rule]
		if len(cells) == 0 {
			continue
		}
		r.printf("", "%s:\n", rule)
		for _, c := range cells {
			verdict := "ok"
			if c.Violated {
				verdict = "VIOLATED"
				if _, ok := base.Waived(c.Key()); ok {
					verdict = "violated (waived)"
				}
			}
			r.printf("", "  %-8s %10d B  ranks %d  %-16s %9.3g s  vs %-22s %9.3g s  ratio %.3f  %s\n",
				c.Layout, c.Bytes, c.Ranks, c.LhsName, c.Lhs, c.RhsName, c.Rhs, c.Ratio, verdict)
			r.printf("", "           lhs plan: %s\n", c.Attribution())
		}
		r.printf("", "\n")
	}

	viol := rp.Violations()
	r.printf("", "violations: %d of %d cells (%d waived in baseline)\n", len(viol), len(rp.Results), base.Len())
	for _, c := range viol {
		status := "FRESH — would fail the CI gate"
		if waivedRatio, ok := base.Waived(c.Key()); ok {
			status = fmt.Sprintf("waived at %.3f", waivedRatio)
			if c.Ratio > waivedRatio*guidelines.BaselineSlack {
				status += " — WORSENED past slack, would fail the CI gate"
			}
		}
		r.printf("", "  %s  ratio %.3f  [%s]\n", c.Key(), c.Ratio, status)
	}
	gate := "PASS"
	if len(fresh) > 0 {
		gate = "FAIL"
	}
	r.printf("", "gate vs baseline: %s\n\n", gate)

	r.printf("", "self-tuned recommender (observed virtual-clock fits fed back via memsim.ObservedHierarchy):\n")
	for _, tc := range tuned {
		note := "guideline satisfied"
		if !tc.Satisfied() {
			note = "GUIDELINE VIOLATED"
		}
		change := ""
		if tc.Tuned != tc.Calibrated {
			change = fmt.Sprintf(" (calibrated picked %s, %.3g s)", tc.Calibrated, tc.CalibratedTime)
		}
		r.printf("", "  %-8s %10d B  tuned -> %-16s %9.3g s  best %-16s %9.3g s  %s%s\n",
			tc.Layout, tc.Bytes, tc.Tuned, tc.TunedTime, tc.Best, tc.BestTime, note, change)
	}
	r.printf("", "\n")
	return nil
}
