// Command figures regenerates the paper's Figures 1–4 and the studies
// E5–E21 on the simulated installations. Every artefact is one entry
// of the study table below: `figures -study list` prints it, and
// `-study a,b` runs the named entries in order for each -profile
// (default: figures, the time, bandwidth and slowdown panels). Each
// study flag that predates -study (-check, -plan, …) appends the entry
// of its name, so `figures -check` is `figures -study figures,check`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/figures"
	"repro/internal/harness"
)

// An entry is one row of the study table.
type entry struct {
	name, about string
	// once marks a profile-independent entry: it runs once, after the
	// per-installation entries.
	once bool
	run  func(w io.Writer, profile string, c config) error
}

type config struct {
	sizes  []int64
	opt    harness.Options
	csvDir string
}

// compact is the size sweep of the real-byte wall-time studies.
var compact = []int64{256 << 10, 1 << 20, 8 << 20}

func table() []entry {
	es := []entry{{"figures", "E1–E4: Figures 1–4, time, bandwidth and slowdown over every scheme (-csv writes them)", false, runFigure}}
	for _, st := range figures.Studies() {
		es = append(es, entry{st.Name, st.ID + ": " + st.Title, false, func(w io.Writer, p string, c config) error {
			return show(w)(st.Run(p, c.sizes, c.opt))
		}})
	}
	return append(es,
		entry{"plancache", "E13: plan cache, cold vs warm compile, compiled chunked streaming", false, func(w io.Writer, p string, c config) error {
			return show(w)(figures.BuildPlanCacheStudy(p, []int64{64 << 10, 1 << 20, 8 << 20}, capReps(c.opt, 12)))
		}},
		entry{"fused", "E14: fused transfer vs staged pack+unpack bandwidth", false, func(w io.Writer, p string, c config) error {
			return show(w)(figures.BuildFusedStudy(p, compact, capReps(c.opt, 12)))
		}},
		entry{"halo", "E15: halo exchange, typed collectives vs manual pack over subarray faces", false, func(w io.Writer, p string, c config) error {
			return show(w)(figures.BuildHaloStudy(p, capReps(c.opt, 8)))
		}},
		entry{"pipeline", "E16: serial vs pipelined vs fused chunk engines across chunk sizes", false, func(w io.Writer, p string, _ config) error {
			return show(w)(figures.BuildPipelineStudy(p, nil, nil))
		}},
		entry{"guidelines", "E17: performance-guidelines verifier against the waiver baseline", false, func(w io.Writer, p string, _ config) error {
			return show(w)(figures.BuildGuidelinesStudy(p))
		}},
		entry{"chaos", "E18: goodput and p99 tail against injected fault rate", false, func(w io.Writer, p string, _ config) error {
			return show(w)(figures.BuildChaosStudy(p, nil, 0))
		}},
		entry{"canon", "E19: normalized vs gather-twin pack bandwidth (wall time, runs once)", true, func(w io.Writer, _ string, c config) error {
			return show(w)(figures.BuildCanonStudy(compact, capReps(c.opt, 12)))
		}},
		entry{"scale", "E20: concurrent job mix at 64-1024 ranks", false, func(w io.Writer, p string, _ config) error {
			return show(w)(figures.BuildScaleStudy(p, nil))
		}},
		entry{"chaosscale", "E21: the E20 job mix under faults, selective vs whole-transfer replay (~1 min)", false, func(w io.Writer, p string, _ config) error {
			return show(w)(figures.BuildChaosScaleStudy(p, nil, nil))
		}},
	)
}

func main() {
	profile := flag.String("profile", "all", "installation profile, or 'all'")
	perDecade := flag.Int("per-decade", 4, "sweep points per decade of message size")
	reps := flag.Int("reps", 20, "ping-pongs per measurement (paper: 20)")
	maxReal := flag.Int64("max-real", 16<<20, "largest materialised payload in bytes; larger runs are virtual")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files")
	studies := flag.String("study", "figures", "comma-separated study table entries to run, or 'list'")
	appended := map[string]*bool{}
	for _, name := range strings.Fields("check what-if plan plancache fused halo pipeline guidelines chaos canon scale chaosscale") {
		appended[name] = flag.Bool(name, false, "append the "+name+" entry to -study")
	}
	flag.Parse()

	entries := table()
	if *studies == "list" {
		for _, e := range entries {
			fmt.Printf("%-11s %s\n", e.name, e.about)
		}
		return
	}
	names := strings.Split(*studies, ",")
	for _, e := range entries {
		if on := appended[e.name]; on != nil && *on {
			names = append(names, e.name)
		}
	}
	var selected []entry
	for _, name := range names {
		i := slices.IndexFunc(entries, func(e entry) bool { return e.name == name })
		if i < 0 {
			check(fmt.Errorf("no study %q (figures -study list)", name))
		}
		selected = append(selected, entries[i])
	}

	profiles := []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"}
	if *profile != "all" {
		profiles = []string{*profile}
	}
	c := config{sizes: figures.DefaultSizes(*perDecade), opt: harness.DefaultOptions(), csvDir: *csvDir}
	c.opt.Reps = *reps
	c.opt.MaxRealBytes = *maxReal
	// The profile-independent entries run once, in a last pass.
	for _, p := range append(profiles, "") {
		for _, e := range selected {
			if e.once == (p == "") {
				check(e.run(os.Stdout, p, c))
			}
		}
	}
}

func runFigure(w io.Writer, profile string, c config) error {
	fig, err := figures.Build(profile, c.sizes, c.opt)
	if err != nil {
		return err
	}
	if err := fig.Render(w); err != nil || c.csvDir == "" {
		return err
	}
	var csv bytes.Buffer
	if err := fig.WriteCSV(&csv); err != nil {
		return err
	}
	path := filepath.Join(c.csvDir, profile+".csv")
	if err := os.MkdirAll(c.csvDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o666); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "wrote %s\n", path)
	return err
}

// show renders a study once it is built.
func show(w io.Writer) func(interface{ Render(io.Writer) error }, error) error {
	return func(st interface{ Render(io.Writer) error }, err error) error {
		if err != nil {
			return err
		}
		return st.Render(w)
	}
}

// capReps bounds the repetitions of the real-byte wall-time studies.
func capReps(o harness.Options, n int) harness.Options {
	o.Reps = min(o.Reps, n)
	return o
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
