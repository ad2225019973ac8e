package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	defaultOut      = "cmd/bench/out/BENCH.json"
	defaultTraceOut = "cmd/bench/out/trace.json"
)

// environment is what a reader needs to judge the numbers by.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	LLCBytes   string  `json:"last_level_cache"`
	PayloadMiB int     `json:"payload_MiB"`     // the large payload
	SourceMiB  int     `json:"source_MiB"`      // its strided source
	WorkingMiB int     `json:"working_set_MiB"` // both ranks' source, staging and receive buffers
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

// workloadResult is one workload's two passes.
type workloadResult struct {
	Noisy    bool              `json:"noisy"`
	Drift    float64           `json:"calib_drift"`
	Correct  bool              `json:"correct"`
	Ops      map[string]int    `json:"ops"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
	Shares   *shareTable       `json:"pp_large_vector_shares,omitempty"`
}

// benchFile is the checked-in result format (baseline/BENCH_<pr>.json).
type benchFile struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// runAll runs every workload, each pass in a child process of its own
// so that peak RSS, the plan cache and the package-global counters do
// not bleed between workloads.
func runAll(o options) error {
	if o.out == "" {
		o.out = defaultOut
	}
	if o.traceOut == "" {
		o.traceOut = defaultTraceOut
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(o.out), "pass")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	pass := func(w string, trace int, tracePath string) (*outcome, error) {
		path := filepath.Join(tmp, fmt.Sprintf("%s.%d.json", w, trace))
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-scale", fmt.Sprint(o.scale), "-trace", fmt.Sprint(trace), "-out", path, "-trace-out", tracePath)
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %d): %w", w, trace, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var out outcome
		return &out, json.Unmarshal(data, &out)
	}

	file := benchFile{Env: readEnvironment(o), Workloads: map[string]workloadResult{}}
	var events []traceEvent
	for i, w := range workloads {
		fmt.Fprintf(logw, "%s: untraced pass\n", w.name)
		plain, err := pass(w.name, 0, "")
		if err != nil {
			return err
		}
		// A drifting sentinel gets the workload one more try.
		if plain.Before.drift(*plain.After) > noisyDrift {
			fmt.Fprintf(logw, "%s: calibration drifted %.1f %%, running again\n", w.name, 100*plain.Before.drift(*plain.After))
			if plain, err = pass(w.name, 0, ""); err != nil {
				return err
			}
		}
		fmt.Fprintf(logw, "%s: traced pass\n", w.name)
		tracePath := filepath.Join(tmp, w.name+".trace.json")
		traced, err := pass(w.name, 1, tracePath)
		if err != nil {
			return err
		}
		drift := plain.Before.drift(*plain.After)
		file.Workloads[w.name] = workloadResult{
			Noisy: drift > noisyDrift, Drift: drift,
			Correct:  plain.Correct && traced.Correct,
			Ops:      plain.Ops,
			EndToEnd: plain.Metrics, PerLayer: traced.Metrics,
			Shares: traced.Shares,
		}
		evs, err := readTrace(tracePath, i+1)
		if err != nil {
			return err
		}
		events = append(events, evs...)
	}

	printSummary(os.Stdout, file)
	if err := writeJSON(o.out, file); err != nil {
		return err
	}
	if err := writeTrace(o.traceOut, events); err != nil {
		return err
	}
	fmt.Fprintf(os.Stdout, "\nresult: %s\ntrace:  %s (%d spans; open in ui.perfetto.dev or chrome://tracing)\n", o.out, o.traceOut, len(events))
	for name, w := range file.Workloads {
		if !w.Correct {
			return fmt.Errorf("%s: outputs were not correct", name)
		}
	}
	return nil
}

// readTrace loads one child's trace and files it under its own process
// id, so the workloads sit side by side in the viewer.
func readTrace(path string, pid int) ([]traceEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	for i := range doc.TraceEvents {
		doc.TraceEvents[i].Pid = pid
	}
	return doc.TraceEvents, nil
}

func printSummary(w io.Writer, file benchFile) {
	fmt.Fprintf(w, "%-16s", "end to end")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "%-16s", d.Name)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %14.6g", file.Workloads[wl.name].EndToEnd[d.Name].Value)
		}
		fmt.Fprintf(w, "  %s\n", d.Unit)
	}
	fmt.Fprintf(w, "\n%-44s", "per layer (0 = not produced by the workload)")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer() {
		fmt.Fprintf(w, "%-44s", d.Name)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %14.6g", file.Workloads[wl.name].PerLayer[d.Name].Value)
		}
		fmt.Fprintf(w, "  %s\n", d.Unit)
	}
	for _, wl := range workloads {
		r := file.Workloads[wl.name]
		if r.Noisy {
			fmt.Fprintf(w, "%s: noisy (calibration drifted %.1f %% twice)\n", wl.name, 100*r.Drift)
		}
		if r.Shares != nil {
			fmt.Fprintf(w, "\n%s", r.Shares)
		}
	}
}

func readEnvironment(o options) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: pinnedProcs,
		CPUModel: "unknown", LLCBytes: "unknown",
		PayloadMiB: largeBytes >> 20, SourceMiB: 2 * largeBytes >> 20, WorkingMiB: 6 * largeBytes >> 20,
		Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The highest cache index of cpu0 is its last-level cache.
	caches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	if len(caches) > 0 {
		if data, err := os.ReadFile(caches[len(caches)-1]); err == nil {
			env.LLCBytes = strings.TrimSpace(string(data))
		}
	}
	return env
}
