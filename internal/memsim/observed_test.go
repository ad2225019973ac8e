package memsim

import (
	"math"
	"sync"
	"testing"
)

func TestObservedFitRecoversLine(t *testing.T) {
	o := NewObservedHierarchy()
	// t = 2µs + n/10GB/s, sampled at several sizes.
	alpha, invBW := 2e-6, 1e-10
	for _, n := range []int64{1 << 10, 64 << 10, 1 << 20, 16 << 20} {
		o.Observe(PathTypedSend, n, alpha+invBW*float64(n))
	}
	f, ok := o.Fit(PathTypedSend)
	if !ok {
		t.Fatal("no fit after 4 samples")
	}
	if math.Abs(f.Alpha-alpha) > alpha*0.05 {
		t.Errorf("alpha %g, want ~%g", f.Alpha, alpha)
	}
	if math.Abs(f.InvBW-invBW) > invBW*0.05 {
		t.Errorf("invBW %g, want ~%g", f.InvBW, invBW)
	}
	if got, want := f.Predict(8<<20), alpha+invBW*float64(8<<20); math.Abs(got-want) > want*0.05 {
		t.Errorf("Predict(8MiB) %g, want ~%g", got, want)
	}
	if bw := 1 / f.InvBW; math.Abs(bw-1e10) > 1e9 {
		t.Errorf("Bandwidth %g, want ~1e10", bw)
	}
}

func TestObservedFitNeedsMinSamples(t *testing.T) {
	o := NewObservedHierarchy()
	for i := 0; i < MinObservations-1; i++ {
		o.Observe(PathTypedSend, 1<<20, 1e-4)
	}
	if _, ok := o.Fit(PathTypedSend); ok {
		t.Fatalf("fit usable at %d samples, want none under %d", MinObservations-1, MinObservations)
	}
	o.Observe(PathTypedSend, 1<<20, 1e-4)
	if _, ok := o.Fit(PathTypedSend); !ok {
		t.Fatal("no fit at MinObservations samples")
	}
}

func TestObservedFitSingleSizeDegeneratesToBandwidth(t *testing.T) {
	o := NewObservedHierarchy()
	for i := 0; i < 5; i++ {
		o.Observe(PathPackedSend, 1<<20, 1e-4)
	}
	f, ok := o.Fit(PathPackedSend)
	if !ok {
		t.Fatal("no fit")
	}
	if f.Alpha != 0 {
		t.Errorf("degenerate fit alpha %g, want 0", f.Alpha)
	}
	if got := f.Predict(1 << 20); math.Abs(got-1e-4) > 1e-9 {
		t.Errorf("Predict at observed size %g, want 1e-4", got)
	}
}

func TestObservedIgnoresBadSamplesAndClamps(t *testing.T) {
	o := NewObservedHierarchy()
	o.Observe(PathTypedSend, 0, 1)
	o.Observe(PathTypedSend, -5, 1)
	o.Observe(PathTypedSend, 8, -1)
	if m := o.paths[PathTypedSend]; m != nil {
		t.Fatalf("bad samples recorded: %d", m.n)
	}
	// Decreasing times with size would fit a negative slope; the fit
	// must clamp to a flat non-negative prediction.
	o.Observe(PathTypedSend, 1<<10, 3e-4)
	o.Observe(PathTypedSend, 1<<20, 2e-4)
	o.Observe(PathTypedSend, 16<<20, 1e-4)
	f, ok := o.Fit(PathTypedSend)
	if !ok {
		t.Fatal("no fit")
	}
	if f.InvBW < 0 || f.Alpha < 0 {
		t.Errorf("negative coefficients survived: %+v", f)
	}
	if got := f.Predict(1 << 30); got < 0 {
		t.Errorf("negative prediction %g", got)
	}
}

func TestObservedPredictExactAtObservedSizes(t *testing.T) {
	o := NewObservedHierarchy()
	// A convex cost curve no single line fits: the OLS line would
	// misprice the smallest size, but Predict at an observed size must
	// return that size's measured mean.
	samples := map[int64]float64{8 << 10: 8.5e-6, 256 << 10: 4e-5, 4 << 20: 6e-4}
	for n, s := range samples {
		o.Observe(PathTypedSend, n, s)
	}
	for n, want := range samples {
		got, ok := o.Predict(PathTypedSend, n)
		if !ok {
			t.Fatalf("no prediction at observed size %d", n)
		}
		if math.Abs(got-want) > want*1e-9 {
			t.Errorf("Predict(%d) = %g, want the observed %g", n, got, want)
		}
	}
	// Unobserved sizes fall back to the fitted line.
	f, _ := o.Fit(PathTypedSend)
	if got, _ := o.Predict(PathTypedSend, 1<<20); math.Abs(got-f.Predict(1<<20)) > 1e-12 {
		t.Errorf("off-grid Predict %g, want line %g", got, f.Predict(1<<20))
	}
}

func TestObservedConcurrent(t *testing.T) {
	o := NewObservedHierarchy()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				o.Observe(PathTypedSend, 1<<20, 1e-4)
				o.Fit(PathTypedSend)
			}
		}()
	}
	wg.Wait()
	if m := o.paths[PathTypedSend]; m == nil || m.n != 800 || len(o.paths) != 1 {
		t.Errorf("paths %v, want 800 samples of %s only", o.paths, PathTypedSend)
	}
}
