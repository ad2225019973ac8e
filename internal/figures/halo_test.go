package figures

import (
	"io"
	"regexp"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/oracle"
)

// TestHaloStudyBuilds runs E15 on the Skylake profile and pins its
// invariants: every geometry measures all tiles, bandwidths are
// positive, the typed rounds carry fused attribution (the self-leg is
// always a fused copy), and the rendezvous-sized cells run all-fused
// with no staged traffic.
func TestHaloStudyBuilds(t *testing.T) {
	opt := harness.DefaultOptions()
	opt.Reps = 3
	r := run(t, study(t, "halo"), nil, opt)
	fused := regexp.MustCompile(`typed rounds: plan\{.* fused=[1-9]`)
	for _, g := range haloGeometries {
		typed, manual := r.Series(Curve{Name: "typed", Variant: g.name}), r.Series(Curve{Name: "manual", Variant: g.name})
		if typed.Len() != len(haloTiles[g.dim]) {
			t.Fatalf("%s: cells = %d, want %d", g.name, typed.Len(), len(haloTiles[g.dim]))
		}
		for i, x := range typed.X {
			if typed.Y[i] <= 0 || manual.Y[i] <= 0 {
				t.Errorf("%s N=%g: non-positive bandwidth typed %g manual %g", g.name, x, typed.Y[i], manual.Y[i])
			}
		}
		lines := strings.Split(strings.TrimSpace(r.notes[g.name]), "\n")
		for i := 1; i < len(lines); i += 2 {
			if !fused.MatchString(lines[i]) {
				t.Errorf("%s: typed rounds carry no fused attribution: %s", g.name, lines[i])
			}
		}
		// The largest tile's faces are rendezvous-sized: every typed
		// leg must ride the fused engine.
		if last := lines[len(lines)-2]; !strings.HasSuffix(last, "(virtual)") {
			t.Errorf("%s: largest tile expected to run virtual: %s", g.name, last)
		}
		if last := lines[len(lines)-1]; !strings.HasSuffix(last, " staged=0/0B}") {
			t.Errorf("%s: staged traffic on rendezvous-sized typed rounds: %s", g.name, last)
		}
	}
	// The contiguous-face panels pay pack+unpack only on the manual
	// side, so the typed collective must win there at the largest tile.
	for _, name := range []string{"2d-y row (contig)", "3d-z plane (contig)"} {
		if sp := r.last(per(name, "typed", "manual")); sp <= 1 {
			t.Errorf("%s: typed/manual %.2fx at the largest tile, want >1", name, sp)
		}
	}
	if err := r.Render(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestHaloStudyGolden renders E15 on the four paper installations at
// cmd/figures' settings (eight exchange rounds, payloads over 16 MiB
// virtual) and compares each installation's text, line by line, with
// the store's block "halo.<profile>"; the block "halo" lists those
// blocks. Every number in it is on the
// virtual clock or a plan counter of study-local types, so the rows pin
// no core count and no garbage-collector timing.
func TestHaloStudyGolden(t *testing.T) {
	opt := harness.DefaultOptions()
	var blocks []string
	for _, p := range []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"} {
		r, err := study(t, "halo").Run(p, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := r.Render(&out); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, "halo."+p)
		oracle.Golden(t, blocks[len(blocks)-1], strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"))
	}
	oracle.Golden(t, "halo", blocks)
}
