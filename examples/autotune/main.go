// Autotune: use the recommendation engine (the paper's conclusion as
// code) and verify its advice empirically by measuring all schemes
// across sizes and checking that the recommended scheme is never far
// from the measured best.
//
// Run with:
//
//	go run ./examples/autotune
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
	opt := repro.DefaultOptions()
	opt.Reps = 5

	sizes := []int64{10_000, 1_000_000, 100_000_000, 1_000_000_000}
	fmt.Printf("auto-tuning non-contiguous sends on %s\n\n", prof.Description)

	for _, n := range sizes {
		w := repro.WorkloadForBytes(n)
		w.Virtual = n > opt.MaxRealBytes

		best := repro.Scheme(-1)
		bestT := 0.0
		times := map[repro.Scheme]float64{}
		for _, s := range repro.Schemes() {
			if s == repro.Reference {
				continue // the baseline is not a non-contiguous option
			}
			m, err := repro.Measure(prof, s, w, opt)
			if err != nil {
				log.Fatal(err)
			}
			times[s] = m.Time()
			if best < 0 || m.Time() < bestT {
				best, bestT = s, m.Time()
			}
		}

		rec, err := repro.Recommend(repro.Query{Bytes: n, Profile: prof}, repro.GoalFastest)
		if err != nil {
			log.Fatal(err)
		}
		gap := times[rec.Scheme]/bestT - 1
		fmt.Printf("%12d bytes: measured best %-12s recommended %-12s (within %4.1f%% of best)\n",
			n, best.String(), rec.Scheme.String(), gap*100)
	}

	fmt.Println("\nthe paper's conclusion (§5): packing a derived datatype consistently")
	fmt.Println("matches the manual copy and avoids MPI-internal buffering at large sizes.")
}
