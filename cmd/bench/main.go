// Command bench is the repo's benchmark: five closed-loop workloads
// over the simulated MPI stack, measured on both of its clocks — wall
// (host time of the Go kernels, pool, matcher, protocol and goroutine
// hand-off) and virt (seconds on the simulated installation, the
// paper's quantity) — end to end and per layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Until the virtual clock stops reading GOMAXPROCS (ROADMAP item 1),
// simulated seconds depend on it, so the driver pins it.
const pinnedProcs = 2

// noisyDrift is the calibration drift past which a workload's
// measurement is not trusted. The sentinel is two point readings, and
// on a shared host they differ by more than 10 % in one pass of three
// while the medians over the timed window hold (README).
const noisyDrift = 0.15

// setupRuns is the number of times an untraced pass sets its workload
// up; setup_s is the median.
const setupRuns = 5

// logw receives diagnostics; standard output carries results only.
var logw io.Writer = os.Stderr

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	out      string
	traceOut string
}

// resultLine is the last line of a pass's standard output, as the
// benchmark contract asks for it.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one pass over one workload reports.
type outcome struct {
	resultLine

	Workload string         `json:"workload,omitempty"`
	Seed     uint64         `json:"seed,omitempty"`
	Seconds  float64        `json:"seconds,omitempty"`
	Ops      map[string]int `json:"ops,omitempty"` // timed ops per arm
	Before   *calibration   `json:"calib_before,omitempty"`
	After    *calibration   `json:"calib_after,omitempty"`
	Shares   *shareTable    `json:"pp_large_vector_shares,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var compare, manifest bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, each in a child process, both passes)")
	seed := flag.Int64("seed", 11, "seed of the payload fill pattern and the fault plan")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of one workload's timed window")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = probes and traced pass, per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "shrink warm-up counts, segment lengths and probe repetitions (smoke test)")
	flag.StringVar(&o.out, "out", "", "write the result as JSON to this file (all workloads: default cmd/bench/out/BENCH.json)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass as Chrome-trace JSON to this file (all workloads: default cmd/bench/out/trace.json)")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()
	o.seed = uint64(*seed)

	var err error
	switch {
	case manifest:
		err = printManifest(os.Stdout)
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case o.workload == "":
		err = runAll(o)
	default:
		var out *outcome
		if out, err = runOne(o); err == nil {
			err = report(os.Stdout, out, o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

// runOne runs one pass over one workload in this process.
func runOne(o options) (*outcome, error) {
	runtime.GOMAXPROCS(pinnedProcs)
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	cfg := passConfig{seed: o.seed, scale: o.scale, budget: time.Duration(o.seconds * float64(time.Second))}
	out := &outcome{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Ops: map[string]int{}}
	out.Metrics = map[string]metric{}

	before, err := calibrate(cfg)
	if err != nil {
		return nil, err
	}
	pass, defs := untracedPass, endToEnd
	if o.trace == 1 {
		pass, defs = tracedPass, perLayer()
	}
	values, err := pass(w, cfg, o, out)
	if err != nil {
		return nil, err
	}
	after, err := calibrate(cfg)
	if err != nil {
		return nil, err
	}
	out.Before, out.After = &before, &after

	inUse := float64(poolStatsSnapshot().InUseBytes)
	values["bench.calib_memmove_GBps"] = after.MemmoveGBps
	values["bench.calib_handoff_ns"] = after.HandoffNS
	values["buf.inuse_bytes_end"] = inUse
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if inUse != 0 {
		fmt.Fprintf(logw, "%s: %v pooled bytes still checked out at the end\n", w.name, inUse)
	}
	out.Correct = out.Failed == 0 && inUse == 0
	return out, nil
}

// note adds a pass's ops to the outcome.
func (out *outcome) note(r *passResult) {
	out.Attempted, out.Failed = out.Attempted+r.attempted, out.Failed+r.failed
	for _, ar := range r.arms {
		out.Ops[ar.name] = ar.ops
	}
}

// untracedPass yields the end-to-end metrics. Set-up runs setupRuns
// times; only the last one goes on to the timed window.
func untracedPass(w *workload, cfg passConfig, _ options, out *outcome) (map[string]float64, error) {
	budget := cfg.budget
	cfg.budget = 0
	var setups []float64
	for i := 1; ; i++ {
		if i >= cfg.scaled(setupRuns) {
			cfg.budget = budget
		}
		r, err := w.run(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		out.note(r)
		if cfg.budget > 0 {
			return endToEndMetrics(r, median(setups)), nil
		}
	}
}

// tracedPass yields the per-layer metrics: the workload's probes, then
// the workload twice for a quarter of the window each, untraced and
// traced, which also gives the tracing overhead.
func tracedPass(w *workload, cfg passConfig, o options, out *outcome) (map[string]float64, error) {
	tr := newTracer(w.name)
	tr.begin("workload." + w.name)
	cfg.tr = tr
	values, err := runProbes(w.name, cfg)
	if err != nil {
		return nil, err
	}
	cfg.budget /= 4
	cfg.tr = nil
	plain, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	cfg.tr = tr
	traced, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	tr.end()
	out.note(plain)
	out.note(traced)

	if w.name == "pp_large" { // whose probes the share table is made of
		st := vectorShares(traced, values)
		values["mpi.residual_share"] = ratio(st.ResidualUS, st.OpUS)
		out.Shares = &st
	}
	layers := []map[string]float64{layerCounts(traced), traced.layer}
	if w.name == "pp_large" || w.name == "pp_small" {
		layers = append(layers, ladder(traced))
	}
	for _, m := range layers {
		for k, v := range m {
			values[k] = v
		}
	}
	values["bench.trace_overhead_frac"] = ratio(opWallP50(traced), opWallP50(plain)) - 1
	if o.traceOut != "" {
		return values, writeTrace(o.traceOut, tr.events())
	}
	return values, nil
}

// report prints every metric by name with its unit, then the result
// line, and writes the full outcome to o.out when asked.
func report(w io.Writer, out *outcome, o options) error {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %d  gomaxprocs %d\n", out.Workload, o.seed, o.seconds, o.trace, pinnedProcs)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	if out.Shares != nil {
		fmt.Fprint(w, out.Shares)
	}
	if o.out != "" {
		if err := writeJSON(o.out, out); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchManifest is BENCHMARK.json.
type benchManifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func printManifest(w io.Writer) error {
	m := benchManifest{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{wl.name, wl.why})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
