package figures

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestGuidelinesStudyRender(t *testing.T) {
	r := run(t, study(t, "guidelines"), nil, harness.Options{})
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"E17 performance-guidelines verifier — skx-impi",
		"typed<=pack+send",
		"recommended<=alternatives",
		"collective<=p2p",
		"lhs plan: fused",
		"gate vs baseline:",
		"self-tuned recommender",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// skx-impi has no waivers: the study must pass the gate and every
	// tuned choice must satisfy the recommender guideline.
	if fresh := r.last(Curve{Name: "fresh"}); fresh != 0 {
		t.Errorf("skx-impi study failed the gate with %g fresh violations", fresh)
	}
	if !strings.Contains(out, "tuned -> ") {
		t.Fatal("no self-tuning cells")
	}
	if strings.Contains(out, "GUIDELINE VIOLATED") {
		t.Errorf("a tuned choice misses the guideline:\n%s", out)
	}
}
