package guidelines

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

// TunedChoice is one cell of the self-tuning demonstration: what the
// calibrated recommender picks, what the self-tuned recommender picks
// after observing the installation's measured scheme table, and how
// both choices fare against the measured best.
type TunedChoice struct {
	Profile string
	Layout  string
	Bytes   int64
	// Calibrated and Tuned are the schemes core.Recommend picks for
	// this cell without and with the observed fits; the time fields are
	// those schemes' measured virtual-clock seconds, and Best/BestTime
	// the fastest scheme of the measured table.
	Calibrated, Tuned, Best             core.Scheme
	CalibratedTime, TunedTime, BestTime float64
}

// Satisfied reports whether the tuned choice meets the recommender
// guideline — its measured time within Tolerance of the measured best.
func (tc TunedChoice) Satisfied() bool {
	return tc.BestTime <= 0 || tc.TunedTime <= tc.BestTime*Tolerance
}

// SelfTune closes the tuning loop on one installation: measure the
// point-to-point scheme table at each size, feed the typed-send and
// compiled-pack observations into a memsim.ObservedHierarchy, and
// report the calibrated vs self-tuned recommendation per cell. With
// the observed fits in place the tuned choice is an argmin over
// measured costs, so the recommender guideline holds by construction —
// including on the cells where the raw typed-vs-pack bound is waived.
func SelfTune(profile string, lay LayoutSpec, sizes []int64, reps int) ([]TunedChoice, error) {
	p, err := perfmodel.ByName(profile)
	if err != nil {
		return nil, err
	}
	o := memsim.NewObservedHierarchy()
	opt := harness.Options{Reps: reps, FlushCache: true, OutlierSigma: 0}
	table := make(map[int64]map[core.Scheme]float64, len(sizes))
	for _, n := range sizes {
		w := workloadFor(lay, n)
		times := make(map[core.Scheme]float64, len(p2pSchemes))
		grid, err := harness.MeasureGrid(p, p2pSchemes, []core.Workload{w}, opt)
		if err != nil {
			return nil, fmt.Errorf("self-tune %s/%s/%d: %w", profile, lay.Name, n, err)
		}
		for i, s := range p2pSchemes {
			times[s] = grid[i][0].Time()
		}
		table[n] = times
		o.Observe(memsim.PathTypedSend, w.Bytes(), times[core.VectorType])
		o.Observe(memsim.PathPackedSend, w.Bytes(), times[core.PackCompiled])
	}
	out := make([]TunedChoice, 0, len(sizes))
	for _, n := range sizes {
		w := workloadFor(lay, n)
		times := table[n]
		lookup := func(s core.Scheme) (float64, error) {
			if t, ok := times[s]; ok {
				return t, nil
			}
			m, err := harness.Measure(p, s, w, opt)
			if err != nil {
				return 0, fmt.Errorf("self-tune %s: %v: %w", profile, s, err)
			}
			times[s] = m.Time()
			return m.Time(), nil
		}
		cal, err := core.Recommend(core.Query{Bytes: w.Bytes(), Profile: p}, core.GoalFastest)
		if err != nil {
			return nil, err
		}
		tuned, err := core.Recommend(core.Query{Bytes: w.Bytes(), Profile: p, Observed: o}, core.GoalFastest)
		if err != nil {
			return nil, err
		}
		tc := TunedChoice{
			Profile: profile, Layout: lay.Name, Bytes: w.Bytes(),
			Calibrated: cal.Scheme, Tuned: tuned.Scheme,
		}
		if tc.CalibratedTime, err = lookup(cal.Scheme); err != nil {
			return nil, err
		}
		if tc.TunedTime, err = lookup(tuned.Scheme); err != nil {
			return nil, err
		}
		tc.Best, tc.BestTime = tuned.Scheme, tc.TunedTime
		for s, t := range times {
			if t < tc.BestTime {
				tc.Best, tc.BestTime = s, t
			}
		}
		out = append(out, tc)
	}
	return out, nil
}
