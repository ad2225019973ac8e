package repro_test

import (
	"testing"
	"time"

	"repro"
	"repro/internal/buf"
)

func TestFacadeMeasure(t *testing.T) {
	prof, err := repro.ProfileByName("skx-impi")
	if err != nil {
		t.Fatal(err)
	}
	opt := repro.DefaultOptions()
	opt.Reps = 3
	m, err := repro.Measure(prof, repro.PackVector, repro.WorkloadForBytes(1<<16), opt)
	if err != nil {
		t.Fatal(err)
	}
	if m.Time() <= 0 || m.Bandwidth() <= 0 {
		t.Fatalf("measurement = %+v", m)
	}
	if !m.Verified {
		t.Fatal("payload not verified")
	}
}

func TestFacadeProfiles(t *testing.T) {
	names := repro.ProfileNames()
	if len(names) < 4 {
		t.Fatalf("profiles = %v", names)
	}
	for _, n := range names {
		if _, err := repro.ProfileByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestFacadeSchemes(t *testing.T) {
	// The paper's eight schemes plus the compiled-pack,
	// fused-rendezvous and pipelined-typed columns.
	if len(repro.Schemes()) != 11 {
		t.Fatalf("schemes = %v", repro.Schemes())
	}
}

func TestFacadeRecommend(t *testing.T) {
	prof, _ := repro.ProfileByName("generic")
	r, err := repro.Recommend(repro.Query{Bytes: 1 << 30, Profile: prof}, repro.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme != repro.PackCompiled {
		t.Fatalf("large balanced recommendation = %v", r.Scheme)
	}
}

func TestFacadeSelfTuning(t *testing.T) {
	prof, _ := repro.ProfileByName("generic")
	o := repro.NewObservedHierarchy()
	// Observation says the typed send is 10x the explicit pack: the
	// tuned recommender must abandon it.
	for i := 0; i < 4; i++ {
		o.Observe(repro.PathTypedSend, 1<<20, 1e-3)
		o.Observe(repro.PathPackedSend, 1<<20, 1e-4)
	}
	r, err := repro.Recommend(repro.Query{Bytes: 1 << 20, Profile: prof, Observed: o}, repro.GoalFastest)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme == repro.VectorType {
		t.Fatalf("tuned recommendation kept the typed send: %+v", r)
	}
}

func TestFacadeGuidelinesSweep(t *testing.T) {
	rp, err := repro.GuidelinesSweep(repro.GuidelinesConfig{
		Profiles: []string{"skx-impi"},
		Sizes:    []int64{8 << 10},
		Reps:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Results) == 0 {
		t.Fatal("empty guidelines report")
	}
}

func TestFacadeRunAndTypes(t *testing.T) {
	err := repro.Run(2, repro.RunOptions{WallLimit: 30 * time.Second}, func(c *repro.Comm) error {
		ty, err := repro.TypeVector(16, 1, 2, repro.TypeFloat64)
		if err != nil {
			return err
		}
		if err := ty.Commit(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(7)
			return c.SendType(src, 1, ty, 1, 0)
		}
		dst := buf.Alloc(int(ty.Size()))
		_, err = c.Recv(dst, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBuildFigure(t *testing.T) {
	opt := repro.DefaultOptions()
	opt.Reps = 2
	opt.MaxRealBytes = 1
	opt.Verify = false
	fig, err := repro.BuildFigure("ls5-cray", []int64{1_000, 1_000_000}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Time) != 11 || len(fig.Slowdown) != 11 {
		t.Fatalf("panels: %d time, %d slowdown", len(fig.Time), len(fig.Slowdown))
	}
}

func TestFigureSizesSpanPaperRange(t *testing.T) {
	sizes := repro.FigureSizes(3)
	if sizes[0] > 1_000 || sizes[len(sizes)-1] < 999_000_000 {
		t.Fatalf("sizes = %v … %v", sizes[0], sizes[len(sizes)-1])
	}
}
