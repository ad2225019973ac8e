package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// smoke runs one pass of one workload at a hundredth of its size.
func smoke(t *testing.T, workload string, trace int, traceOut string) *outcome {
	t.Helper()
	out, err := runOne(options{workload: workload, seed: 11, seconds: 0.05, trace: trace, scale: 0.02, traceOut: traceOut})
	if err != nil {
		t.Fatalf("%s (trace %d): %v", workload, trace, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("%s (trace %d): correct=%v attempted=%d failed=%d", workload, trace, out.Correct, out.Attempted, out.Failed)
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", workload, name, m.Value)
		}
	}
	return out
}

func metricNames(defs []metricDef) map[string]string {
	names := map[string]string{}
	for _, d := range defs {
		names[d.Name] = d.Unit
	}
	return names
}

// TestSmoke drives every workload through both passes and checks what
// the benchmark contract and cmd/bench/README.md promise about the
// output.
func TestSmoke(t *testing.T) {
	logw = io.Discard
	tmp := t.TempDir()
	file := benchFile{Workloads: map[string]workloadResult{}}
	for _, w := range workloads {
		plain := smoke(t, w.name, 0, "")
		tracePath := filepath.Join(tmp, w.name+".json")
		traced := smoke(t, w.name, 1, tracePath)
		for pass, want := range map[*outcome]map[string]string{plain: metricNames(endToEnd), traced: metricNames(perLayer())} {
			if len(pass.Metrics) != len(want) {
				t.Errorf("%s: %d metrics emitted, %d defined", w.name, len(pass.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := pass.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s: metric %s: emitted %v (present %v), want unit %q", w.name, name, got, ok, unit)
				}
			}
		}
		for _, d := range endToEnd {
			if plain.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, plain.Metrics[d.Name].Value)
			}
		}
		if w.name != "typed_faulty" && traced.Metrics["simnet.retries_per_op"].Value != 0 {
			t.Errorf("%s: retries on a clean workload", w.name)
		}
		if w.name == "typed_faulty" && traced.Metrics["simnet.faults_per_op"].Value == 0 {
			t.Errorf("typed_faulty: the fault plan injected nothing")
		}
		if w.name == "jobmix" && traced.Metrics["harness.jobmix_inflight_peak"].Value != mixPeak {
			t.Errorf("jobmix: in-flight peak %v, want %d", traced.Metrics["harness.jobmix_inflight_peak"].Value, mixPeak)
		}
		if (w.name == "pp_large") != (traced.Shares != nil) {
			t.Errorf("%s: share table present = %v", w.name, traced.Shares != nil)
		}
		checkTrace(t, tracePath)
		file.Workloads[w.name] = workloadResult{Correct: true, EndToEnd: plain.Metrics, PerLayer: traced.Metrics}
	}

	// A result compared with itself has nothing to report.
	path := filepath.Join(tmp, "BENCH.json")
	if err := writeJSON(path, file); err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	regressed, err := compareFiles(&report, path, path)
	if err != nil || regressed || !strings.Contains(report.String(), "all equal") {
		t.Errorf("self-compare: regressed=%v err=%v\n%s", regressed, err, report.String())
	}
	file.Workloads["pp_small"].EndToEnd["op_wall_us_p50"] = metric{Value: 2 * file.Workloads["pp_small"].EndToEnd["op_wall_us_p50"].Value, Unit: "us"}
	worse := filepath.Join(tmp, "worse.json")
	if err := writeJSON(worse, file); err != nil {
		t.Fatal(err)
	}
	if regressed, err := compareFiles(io.Discard, path, worse); err != nil || !regressed {
		t.Errorf("doubling a wall time: regressed=%v err=%v", regressed, err)
	}
	delete(file.Workloads["pp_small"].EndToEnd, "op_wall_us_p50")
	if err := writeJSON(worse, file); err != nil {
		t.Fatal(err)
	}
	if regressed, err := compareFiles(io.Discard, path, worse); err != nil || !regressed {
		t.Errorf("dropping a metric: regressed=%v err=%v", regressed, err)
	}
}

// TestProbesRunOnce checks that every probe metric comes from exactly
// one workload's traced pass, and is defined.
func TestProbesRunOnce(t *testing.T) {
	defined := metricNames(perLayer())
	owner := map[string]string{}
	for _, w := range workloads {
		values, err := runProbes(w.name, passConfig{seed: 11, scale: 0.02})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for name, v := range values {
			if _, ok := defined[name]; !ok || !(v > 0) {
				t.Errorf("%s: probe %s = %v (defined %v)", w.name, name, v, ok)
			}
			if other, ok := owner[name]; ok {
				t.Errorf("probe %s runs in %s and in %s", name, other, w.name)
			}
			owner[name] = w.name
		}
	}
}

// TestVerdict holds -compare's verdicts at the edges a self-compare
// does not reach.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_wall_us_p50", Better: "lower", Bound: 0.20}
	higher := metricDef{Name: "ops_per_s_wall", Better: "higher", Bound: 0.20}
	allocs := metricDef{Name: "allocs_per_op", Better: "lower", Bound: 0.05, Slack: 0.5}
	for _, c := range []struct {
		d            metricDef
		base, change float64
		noisy        bool
		want         string
	}{
		{lower, 100, 119, false, "ok"},
		{lower, 100, 121, false, "regressed"},
		{lower, 100, 50, false, "ok"},
		{higher, 100, 81, false, "ok"},
		{higher, 100, 79, false, "regressed"},
		{higher, 100, 500, false, "ok"},
		// Either side noisy decides nothing, inside the bound or out.
		{lower, 100, 101, true, "unresolved"},
		{lower, 100, 300, true, "unresolved"},
		// A metric that is 0 or absent was not measured.
		{lower, 0, 100, false, "unresolved"},
		{higher, 0, 100, false, "unresolved"},
		{lower, 100, 0, false, "regressed"},
		{higher, 100, 0, false, "regressed"},
		{lower, 0, 0, false, "regressed"},
		// +5 % or +0.5, whichever is larger.
		{allocs, 2, 2.5, false, "ok"},
		{allocs, 2, 2.6, false, "regressed"},
		{allocs, 100, 104, false, "ok"},
		{allocs, 100, 106, false, "regressed"},
	} {
		if got := verdict(c.d, c.base, c.change, c.noisy); got != c.want {
			t.Errorf("%s: base %v, change %v, noisy %v: %s, want %s", c.d.Name, c.base, c.change, c.noisy, got, c.want)
		}
	}
}

// checkTrace parses a Chrome trace and checks that every span's parent
// exists and encloses it.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	events, err := readTrace(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	type interval struct{ start, end float64 }
	byID := map[int]interval{}
	id := func(e traceEvent, key string) int { return int(e.Args[key].(float64)) }
	for _, e := range events {
		byID[id(e, "id")] = interval{e.Ts, e.Ts + e.Dur}
	}
	const slack = 1e-3 // µs: ts and dur are rounded separately
	probes := 0
	for _, e := range events {
		if strings.HasPrefix(e.Name, "probe.") {
			probes++
		}
		parent := id(e, "parent")
		if parent == 0 {
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Fatalf("%s: span %q has no parent %d", path, e.Name, parent)
		}
		if e.Ts < p.start-slack || e.Ts+e.Dur > p.end+slack {
			t.Fatalf("%s: span %q [%v,%v] leaves its parent [%v,%v]", path, e.Name, e.Ts, e.Ts+e.Dur, p.start, p.end)
		}
	}
	if probes == 0 {
		t.Errorf("%s: no probe spans", path)
	}
}

// TestManifest holds BENCHMARK.json to the metric tables and to the
// limits of the benchmark contract.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	var want strings.Builder
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	if string(data) != want.String() {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside the contract's limits", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setupBound := 0.0
	for _, d := range m.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setupBound = d.Bound
		}
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name)
	}
	for _, d := range m.EndToEnd {
		if d.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// TestOneFileSurface holds the rule of surface.go: no other file of the
// benchmark imports a package of the program under test.
func TestOneFileSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "surface.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if strings.HasPrefix(imp.Path.Value, `"repro`) {
				t.Errorf("%s imports %s: go through surface.go", f, imp.Path.Value)
			}
		}
	}
}
