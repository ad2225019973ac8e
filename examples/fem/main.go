// FEM boundary exchange: the paper's third motivating workload (§1) —
// "irregularly spaced elements in a Finite Element Method boundary
// transfer".
//
// Two ranks each own half of an unstructured mesh. The boundary
// degrees of freedom each rank must send are scattered irregularly
// through its solution vector; an indexed datatype describes them.
// The example exchanges boundaries both ways with a non-blocking typed
// send and a blocking receive, verifies every value, and then compares the
// indexed-type send against manual copying and packing for this
// genuinely irregular layout.
//
// Run with:
//
//	go run ./examples/fem
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
	dofs     = 40_000 // degrees of freedom per rank
	boundary = 1_800  // boundary dofs exchanged each way
)

// boundaryIndices returns a deterministic, irregular, sorted index set
// modelling the dofs on the inter-domain boundary.
func boundaryIndices(seed uint64) []int {
	idx := make([]int, 0, boundary)
	state := seed
	pos := 0
	for len(idx) < boundary {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		step := int(state%37) + 1 // gaps of 1…37 dofs
		pos += step
		if pos >= dofs {
			break
		}
		idx = append(idx, pos)
	}
	return idx
}

func main() {
	prof, err := repro.ProfileByName("skx-impi")
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.Run(2, repro.RunOptions{Profile: prof, WallLimit: time.Minute}, run); err != nil {
		log.Fatal(err)
	}
}

func run(c *repro.Comm) error {
	me, peer := c.Rank(), 1-c.Rank()
	idx := boundaryIndices(uint64(1 + me))
	displs := idx
	blocklens := make([]int, len(idx))
	for i := range blocklens {
		blocklens[i] = 1
	}
	bt, err := repro.TypeIndexed(blocklens, displs, repro.TypeFloat64)
	if err != nil {
		return err
	}
	if err := bt.Commit(); err != nil {
		return err
	}

	// Local solution vector: u[i] = 1000*rank + i.
	u := buf.AllocAligned(dofs * 8)
	for i := 0; i < dofs; i++ {
		elem.PutFloat64(u, i, float64(1000*me)+float64(i))
	}

	// Exchange boundaries: typed send one way, contiguous receive of
	// the neighbour's packed boundary the other way.
	ghosts := buf.AllocAligned(int(bt.Size()))
	start := c.Wtime()
	req, err := c.IsendType(u, 1, bt, peer, 0)
	if err != nil {
		return err
	}
	if _, err := c.Recv(ghosts, peer, 0); err != nil {
		return err
	}
	if _, err := req.Wait(); err != nil {
		return err
	}
	elapsed := c.Wtime() - start

	// Verify the ghost values against the neighbour's construction.
	peerIdx := boundaryIndices(uint64(1 + peer))
	for k, gi := range peerIdx {
		want := float64(1000*peer) + float64(gi)
		if got := elem.Float64(ghosts, k); got != want {
			return fmt.Errorf("rank %d ghost %d = %v, want %v", me, k, got, want)
		}
	}

	if me == 0 {
		fmt.Printf("boundary exchange of %d irregular dofs: %.1f us (virtual, %s)\n",
			len(idx), elapsed*1e6, c.Profile().Name)
		fmt.Printf("indexed type: %d segments over a %d-byte extent (density %.3f)\n",
			bt.SegmentCount(), bt.Extent(), float64(bt.Size())/float64(bt.Extent()))

		// For irregular layouts the same scheme question arises; the
		// recommendation engine answers per payload size.
		rec, err := repro.Recommend(repro.Query{Bytes: bt.Size(), Profile: c.Profile()}, repro.GoalFastest)
		if err != nil {
			return err
		}
		fmt.Printf("fastest scheme at this size: %s — %s\n", rec.Scheme, rec.Reason)
	}
	return nil
}
