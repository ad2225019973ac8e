package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readBenchFile(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// same compares a count or a simulated quantity of two runs. Comm.Wtime
// is a float64 of seconds, so a difference of two readings late in a
// run carries rounding noise around 1e-9 of an op's time.
func same(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(math.Abs(a), math.Abs(b)) }

// verdict judges one end-to-end metric of a change against its base.
// The benchmark's end-to-end metrics are never 0, so a value that is 0
// or absent was not measured: without a base there is nothing to hold
// the change to, and a change that does not report a metric has not
// kept it. A run whose noise sentinel drifted decides nothing either
// way.
func verdict(d metricDef, base, change float64, noisy bool) string {
	switch {
	case !(change > 0):
		return "regressed"
	case !(base > 0) || noisy:
		return "unresolved"
	}
	worse := change - base
	if d.Better == "higher" {
		worse = -worse
	}
	if worse <= math.Max(d.Bound*base, d.Slack) {
		return "ok"
	}
	return "regressed"
}

// compareFiles prints, for every workload, each end-to-end metric of
// base and change with their ratio and the metric's bound, then the
// equality check on counts and simulated quantities. It reports
// whether any metric regressed.
func compareFiles(w io.Writer, basePath, changePath string) (regressed bool, err error) {
	base, err := readBenchFile(basePath)
	if err != nil {
		return false, err
	}
	change, err := readBenchFile(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base   %s (commit %s)\nchange %s (commit %s)\n\n", basePath, base.Env.Commit, changePath, change.Env.Commit)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "change", "change/base", "bound", "verdict")
	for _, wl := range workloads {
		b, okB := base.Workloads[wl.name]
		c, okC := change.Workloads[wl.name]
		if !okB || !okC {
			fmt.Fprintf(w, "%-14s missing from one side\n", wl.name)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			bv, cv := b.EndToEnd[d.Name].Value, c.EndToEnd[d.Name].Value
			v := verdict(d, bv, cv, b.Noisy || c.Noisy)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %9.4f %6.0f%%  %s\n", wl.name, d.Name, bv, cv, ratio(cv, bv), 100*d.Bound, v)
		}
		if c.EndToEnd != nil && !c.Correct {
			fmt.Fprintf(w, "%-14s outputs were not correct: regressed\n", wl.name)
			regressed = true
		}
	}

	fmt.Fprintf(w, "\ncounts and simulated quantities (a simulator-only change leaves them equal on clean workloads):\n")
	differ := 0
	for _, wl := range workloads {
		if wl.name == "typed_faulty" {
			continue // its fault schedule makes counts depend on how far each arm got
		}
		b, c := base.Workloads[wl.name], change.Workloads[wl.name]
		for _, side := range []struct {
			defs         []metricDef
			base, change map[string]metric
		}{{endToEnd, b.EndToEnd, c.EndToEnd}, {perLayer(), b.PerLayer, c.PerLayer}} {
			for _, d := range side.defs {
				if bv, cv := side.base[d.Name].Value, side.change[d.Name].Value; d.Exact && !same(bv, cv) {
					fmt.Fprintf(w, "  %-14s %-44s %.17g != %.17g\n", wl.name, d.Name, bv, cv)
					differ++
				}
			}
		}
	}
	if differ == 0 {
		fmt.Fprintln(w, "  all equal")
	}
	return regressed, nil
}
