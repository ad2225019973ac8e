package guidelines

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

// FuzzGuidelines draws random committed vector geometries and sizes,
// measures the typed send and the compiled pack+send pipeline on the
// virtual clock, and asserts the typed-send-vs-pack+send guideline in its
// structural form: after the observed hierarchy has watched both
// sides, the self-tuned recommender must never keep the typed send
// when the observation says it lost to pack+send (and conversely must
// keep it under GoalBalanced when it won). The raw bound itself is
// allowed to fail — that is the paper's finding and the baseline's
// waiver list — but the closed loop must make acting on a violation
// impossible.
func FuzzGuidelines(f *testing.F) {
	// Known-tight cells: the knl-impi 8 KiB waivers, the canonical
	// every-other-double, a dense wide-block layout, and a rendezvous
	// cell.
	f.Add(uint8(2), uint16(1024), uint8(1), uint8(2)) // knl alt 8 KiB (waived violation)
	f.Add(uint8(2), uint16(128), uint8(8), uint8(16)) // knl block8 8 KiB (waived violation)
	f.Add(uint8(0), uint16(1024), uint8(1), uint8(2)) // skx alt 8 KiB
	f.Add(uint8(1), uint16(4096), uint8(4), uint8(8)) // ls5 128 KiB rendezvous
	f.Add(uint8(0), uint16(8192), uint8(2), uint8(3)) // skx dense-ish large

	profiles := []string{"skx-impi", "ls5-cray", "knl-impi"}
	f.Fuzz(func(t *testing.T, profSel uint8, count uint16, blockLen, stride uint8) {
		w := core.Workload{
			Count:    int(count%8192) + 1,
			BlockLen: int(blockLen%64) + 1,
		}
		w.Stride = w.BlockLen + int(stride%64)
		if err := w.Validate(); err != nil {
			t.Skip()
		}
		if w.Bytes() > 8<<20 {
			t.Skip() // keep the corpus laptop-sized
		}
		p, err := perfmodel.ByName(profiles[int(profSel)%len(profiles)])
		if err != nil {
			t.Fatal(err)
		}
		opt := harness.Options{Reps: 2, FlushCache: true, OutlierSigma: 0}
		typed, err := harness.Measure(p, core.VectorType, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		packedC, err := harness.Measure(p, core.PackCompiled, w, opt)
		if err != nil {
			t.Fatal(err)
		}

		o := memsim.NewObservedHierarchy()
		for i := 0; i < memsim.MinObservations; i++ {
			o.Observe(memsim.PathTypedSend, w.Bytes(), typed.Time())
			o.Observe(memsim.PathPackedSend, w.Bytes(), packedC.Time())
		}
		q := core.Query{Bytes: w.Bytes(), Profile: p, Observed: o}
		rec, err := core.Recommend(q, core.GoalFastest)
		if err != nil {
			t.Fatal(err)
		}

		const tol = 1.05
		if rec.Scheme == core.VectorType && typed.Time() > packedC.Time()*tol {
			t.Errorf("%s %+v (%d B): typed measured %.3g s, pack+send %.3g s (ratio %.3f), yet the self-tuned recommender kept the typed send",
				p.Name, w, w.Bytes(), typed.Time(), packedC.Time(), typed.Time()/packedC.Time())
		}
		// And the mirror: when typed is observed to win clearly, the
		// balanced recommendation must not abandon the user-friendly
		// datatype.
		if typed.Time()*tol < packedC.Time() {
			bal, err := core.Recommend(q, core.GoalBalanced)
			if err != nil {
				t.Fatal(err)
			}
			if bal.Scheme == core.PackCompiled {
				t.Errorf("%s %+v: typed observed %.3g s beats compiled pack %.3g s but balanced self-tuning packed anyway",
					p.Name, w, typed.Time(), packedC.Time())
			}
		}
	})
}
