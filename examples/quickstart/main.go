// Quickstart: create a strided derived datatype, ping-pong it between
// two simulated ranks, and compare the paper's headline schemes at one
// size.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	prof, err := repro.ProfileByName("skx-impi")
	if err != nil {
		log.Fatal(err)
	}

	// The paper's canonical payload: every other float64, 1 MB of
	// payload spread over 2 MB of memory.
	w := repro.WorkloadForBytes(1 << 20)

	opt := repro.DefaultOptions()
	opt.Reps = 10

	fmt.Printf("profile: %s\nworkload: %d blocks × %d elements, stride %d (payload %d bytes)\n\n",
		prof.Description, w.Count, w.BlockLen, w.Stride, w.Bytes())
	fmt.Printf("%-12s %12s %10s %9s\n", "scheme", "time", "GB/s", "slowdown")

	var ref float64
	for _, s := range repro.Schemes() {
		m, err := repro.Measure(prof, s, w, opt)
		if err != nil {
			log.Fatal(err)
		}
		if s == repro.Reference {
			ref = m.Time()
		}
		fmt.Printf("%-12s %10.2fus %10.2f %8.2fx\n",
			s, m.Time()*1e6, m.Bandwidth()/1e9, m.Time()/ref)
	}

	rec, err := repro.Recommend(repro.Query{Bytes: w.Bytes(), Profile: prof}, repro.GoalBalanced)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommended scheme for this payload: %s\n  (%s)\n", rec.Scheme, rec.Reason)
}
