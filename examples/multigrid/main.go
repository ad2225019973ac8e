// Multigrid coarsening transfer: one of the paper's motivating
// workloads (§1) — "every other element of a grid during multigrid
// coarsening".
//
// Rank 0 holds a fine 1-D grid and sends its even-indexed points (the
// coarse grid) to rank 1 with a vector datatype; rank 1 receives the
// coarse grid contiguously, smooths it, and sends it back, where rank
// 0 scatters it into the even slots with a typed receive. Every value
// is checked, and the run reports the virtual cost of each restriction
// under two schemes.
//
// Run with:
//
//	go run ./examples/multigrid
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/buf"
	"repro/internal/elem"
)

const (
	fineN   = 1 << 16 // fine-grid points
	coarseN = fineN / 2
)

func main() {
	prof, err := repro.ProfileByName("ls5-cray")
	if err != nil {
		log.Fatal(err)
	}
	err = repro.Run(2, repro.RunOptions{Profile: prof, WallLimit: time.Minute}, run)
	if err != nil {
		log.Fatal(err)
	}
}

func run(c *repro.Comm) error {
	// The coarse-grid selection: every other fine point.
	coarse, err := repro.TypeVector(coarseN, 1, 2, repro.TypeFloat64)
	if err != nil {
		return err
	}
	if err := coarse.Commit(); err != nil {
		return err
	}

	switch c.Rank() {
	case 0:
		fine := buf.AllocAligned(fineN * 8)
		for i := 0; i < fineN; i++ {
			elem.PutFloat64(fine, i, float64(i))
		}
		// Restriction: ship the even points.
		start := c.Wtime()
		if err := c.SendType(fine, 1, coarse, 1, 0); err != nil {
			return err
		}
		// Interpolation return: receive smoothed coarse values back
		// into the even slots.
		if _, err := c.RecvType(fine, 1, coarse, 1, 1); err != nil {
			return err
		}
		elapsed := c.Wtime() - start

		for i := 0; i < coarseN; i++ {
			want := float64(2*i) + 1
			if got := elem.Float64(fine, 2*i); got != want {
				return fmt.Errorf("fine[%d] = %v, want %v", 2*i, got, want)
			}
			// Odd (fine-only) points must be untouched.
			if got := elem.Float64(fine, 2*i+1); got != float64(2*i+1) {
				return fmt.Errorf("fine[%d] clobbered: %v", 2*i+1, got)
			}
		}
		fmt.Printf("restriction+return of %d coarse points: %.1f us (virtual, %s)\n",
			coarseN, elapsed*1e6, c.Profile().Name)

		rec, err := repro.Recommend(repro.Query{Bytes: int64(coarseN * 8), Profile: c.Profile()}, repro.GoalBalanced)
		if err != nil {
			return err
		}
		fmt.Printf("scheme advice for this transfer: %s — %s\n", rec.Scheme, rec.Reason)
		return nil

	default: // rank 1
		grid := buf.AllocAligned(coarseN * 8)
		if _, err := c.Recv(grid, 0, 0); err != nil {
			return err
		}
		// "Smooth": add one to every coarse value.
		for i := 0; i < coarseN; i++ {
			elem.PutFloat64(grid, i, elem.Float64(grid, i)+1)
		}
		return c.Send(grid, 0, 1)
	}
}
