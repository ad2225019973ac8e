// Command figures regenerates the paper's Figures 1–4, the ping-pong
// table per scheme and the studies of figures.Studies on the simulated
// installations; every time it prints is virtual-clock time. Every
// artefact is one entry of the study table: the figures entry, then one
// per row of figures.Studies. `figures -study list` prints it, and
// `-study a,b` runs the named entries in order for each -profile
// (default: figures, the time, bandwidth and slowdown panels). Each
// study flag that predates -study (-check, -plan, …) appends the entry
// of its name unless -study names it already, so `figures -check` is
// `figures -study figures,check`.
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
	run         func(w io.Writer, profile string, c config) error
}

type config struct {
	sizes  []int64
	opt    harness.Options
	csvDir string
}

func table() []entry {
	es := []entry{{"figures", "E1–E4: Figures 1–4, time, bandwidth and slowdown over every scheme (-csv writes them)", runFigure}}
	for _, st := range figures.Studies() {
		es = append(es, entry{st.Name, st.ID + ": " + st.Title, func(w io.Writer, p string, c config) error {
			r, err := st.Run(p, c.sizes, c.opt)
			if err != nil {
				return err
			}
			return r.Render(w)
		}})
	}
	return es
}

func main() {
	profile := flag.String("profile", "all", "installation profile, or 'all'")
	perDecade := flag.Int("per-decade", 4, "sweep points per decade of message size")
	reps := flag.Int("reps", 20, "ping-pongs per measurement (paper: 20)")
	maxReal := flag.Int64("max-real", 16<<20, "largest materialised payload in bytes; larger runs are virtual")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files")
	studies := flag.String("study", "figures", "comma-separated study table entries to run, or 'list'")
	appended := map[string]*bool{}
	for _, name := range strings.Fields("check what-if plan halo pipeline guidelines chaos scale chaosscale") {
		appended[name] = flag.Bool(name, false, "append the "+name+" entry to -study")
	}
	flag.Parse()
	if *perDecade < 1 {
		check(fmt.Errorf("-per-decade %d: want at least 1", *perDecade))
	}
	if *reps < 1 {
		check(fmt.Errorf("-reps %d: want at least 1", *reps))
	}
	if *maxReal < 0 {
		check(fmt.Errorf("-max-real %d: want at least 0", *maxReal))
	}

	entries := table()
	if *studies == "list" {
		for _, e := range entries {
			fmt.Printf("%-11s %s\n", e.name, e.about)
		}
		return
	}
	names := strings.Split(*studies, ",")
	for _, e := range entries {
		if on := appended[e.name]; on != nil && *on && !slices.Contains(names, e.name) {
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
	for _, p := range profiles {
		for _, e := range selected {
			check(e.run(os.Stdout, p, c))
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

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}
