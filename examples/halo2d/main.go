// 2-D halo exchange: the classic stencil-code pattern where
// non-contiguous sends appear in production — each rank owns a tile of
// a global grid and exchanges one-cell-deep edges with its neighbours
// every iteration. Row edges are contiguous; *column* edges are
// strided with one element per grid row, exactly the datatype question
// the paper studies.
//
// Four ranks form a 2×2 process grid (DimsCreate). Rank 0 holds the
// global grid and hands each rank its tile with ScattervType, a
// subarray tile resized to one tile width landing in the interior of
// the rank's ghost-framed array. Column halos go out as subarray
// datatypes (MPI_Type_create_subarray of an N×1 column), row halos as
// plain contiguous sends. After one exchange every ghost cell is
// verified against the neighbour's interior, and GathervType collects
// the tiles back into a copy of the global grid that must match the
// original. The example then reports
// what the column-halo transfer costs under the derived-type scheme
// versus packing, at this (small) size — where the paper says the
// choice doesn't matter.
//
// Run with:
//
//	go run ./examples/halo2d
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/buf"
	"repro/internal/elem"
)

const (
	tile = 128      // interior cells per dimension
	ext  = tile + 2 // tile plus one ghost layer each side
	nprc = 4        // 2×2 ranks
)

// value is the globally unique cell value rank r assigns to its
// interior cell (i, j), used to verify ghost exchange.
func value(r, i, j int) float64 {
	return float64(r*1_000_000 + i*1_000 + j)
}

func main() {
	prof, err := repro.ProfileByName("skx-impi")
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.Run(nprc, repro.RunOptions{Profile: prof, WallLimit: time.Minute}, run); err != nil {
		log.Fatal(err)
	}
}

func run(c *repro.Comm) error {
	me := c.Rank()
	// The process grid as a Cartesian topology: DimsCreate balances
	// the ranks over two dimensions, Shift hands back the stencil
	// neighbours, ProcNull marks the grid edge.
	dims, err := repro.DimsCreate(c.Size(), 2)
	if err != nil {
		return err
	}
	cart, err := c.CartCreate(dims, []bool{false, false})
	if err != nil {
		return err
	}

	// Rank 0's global grid, row-major rows×cols float64s. Every cell
	// holds the value its owner assigns to it, with the owner's tile
	// at process coordinates (gi/tile, gj/tile) in Cart's row-major
	// rank order.
	rows, cols := dims[0]*tile, dims[1]*tile
	var global buf.Block
	if me == 0 {
		global = buf.AllocAligned(rows * cols * 8)
		for gi := 0; gi < rows; gi++ {
			for gj := 0; gj < cols; gj++ {
				owner := (gi/tile)*dims[1] + gj/tile
				elem.PutFloat64(global, gi*cols+gj, value(owner, gi%tile+1, gj%tile+1))
			}
		}
	}

	// One tile of the global grid, resized to a one-tile-wide extent so
	// that the tile at process coordinates (i, j) starts
	// i*dims[1]*tile + j extents into the grid.
	tileTy, err := repro.TypeSubarray([]int{rows, cols}, []int{tile, tile}, []int{0, 0}, repro.TypeFloat64)
	if err != nil {
		return err
	}
	if tileTy, err = repro.TypeResized(tileTy, 0, tile*8); err != nil {
		return err
	}
	if err := tileTy.Commit(); err != nil {
		return err
	}
	counts := make([]int, c.Size())
	displs := make([]int, c.Size())
	for r := range counts {
		counts[r] = 1
		displs[r] = (r/dims[1])*dims[1]*tile + r%dims[1]
	}

	// Local tile with ghost frame, row-major ext×ext float64s; the
	// scattered tile lands in the interior.
	grid := buf.AllocAligned(ext * ext * 8)
	at := func(i, j int) int { return i*ext + j }
	interior, err := repro.TypeSubarray([]int{ext, ext}, []int{tile, tile}, []int{1, 1}, repro.TypeFloat64)
	if err != nil {
		return err
	}
	if err := interior.Commit(); err != nil {
		return err
	}
	if err := c.ScattervType(global, counts, displs, tileTy, grid, 1, interior, 0); err != nil {
		return err
	}
	// Time the exchange alone: every rank starts it together, cold.
	c.Cache().Flush()
	c.Barrier()

	// Column datatypes: a tile×1 subarray of the ext×ext grid. One
	// type per column of interest (send columns 1 and tile; receive
	// ghost columns 0 and tile+1).
	colType := func(col int) *repro.Datatype {
		ty, err := repro.TypeSubarray(
			[]int{ext, ext}, // full local array
			[]int{tile, 1},  // one interior-height column
			[]int{1, col},   // starting at row 1, the given column
			repro.TypeFloat64,
		)
		if err != nil {
			panic(err)
		}
		if err := ty.Commit(); err != nil {
			panic(err)
		}
		return ty
	}

	start := c.Wtime()

	// East-west exchange: strided column halos via subarray types.
	west, east, err := cart.Shift(1, 1)
	if err != nil {
		return err
	}
	if east >= 0 {
		if err := c.SendType(grid, 1, colType(tile), east, 0); err != nil {
			return err
		}
	}
	if west >= 0 {
		if _, err := c.RecvType(grid, 1, colType(0), west, 0); err != nil {
			return err
		}
		if err := c.SendType(grid, 1, colType(1), west, 1); err != nil {
			return err
		}
	}
	if east >= 0 {
		if _, err := c.RecvType(grid, 1, colType(tile+1), east, 1); err != nil {
			return err
		}
	}

	// North-south exchange: contiguous row halos.
	north, south, err := cart.Shift(0, 1)
	if err != nil {
		return err
	}
	row := func(i int) buf.Block { return grid.Slice(at(i, 1)*8, tile*8) }
	if south >= 0 {
		if err := c.Send(row(tile), south, 2); err != nil {
			return err
		}
	}
	if north >= 0 {
		if _, err := c.Recv(row(0), north, 2); err != nil {
			return err
		}
		if err := c.Send(row(1), north, 3); err != nil {
			return err
		}
	}
	if south >= 0 {
		if _, err := c.Recv(row(tile+1), south, 3); err != nil {
			return err
		}
	}
	elapsed := c.Wtime() - start

	// Verify every ghost cell against the neighbour's interior.
	if west >= 0 {
		for i := 1; i <= tile; i++ {
			if got, want := elem.Float64(grid, at(i, 0)), value(west, i, tile); got != want {
				return fmt.Errorf("rank %d west ghost row %d: %v != %v", me, i, got, want)
			}
		}
	}
	if east >= 0 {
		for i := 1; i <= tile; i++ {
			if got, want := elem.Float64(grid, at(i, tile+1)), value(east, i, 1); got != want {
				return fmt.Errorf("rank %d east ghost row %d: %v != %v", me, i, got, want)
			}
		}
	}
	if north >= 0 {
		for j := 1; j <= tile; j++ {
			if got, want := elem.Float64(grid, at(0, j)), value(north, tile, j); got != want {
				return fmt.Errorf("rank %d north ghost col %d: %v != %v", me, j, got, want)
			}
		}
	}
	if south >= 0 {
		for j := 1; j <= tile; j++ {
			if got, want := elem.Float64(grid, at(tile+1, j)), value(south, 1, j); got != want {
				return fmt.Errorf("rank %d south ghost col %d: %v != %v", me, j, got, want)
			}
		}
	}

	// Collect the interiors back at rank 0: the tiles must reassemble
	// the global grid exactly.
	var back buf.Block
	if me == 0 {
		back = buf.AllocAligned(rows * cols * 8)
	}
	if err := c.GathervType(grid, 1, interior, back, counts, displs, tileTy, 0); err != nil {
		return err
	}
	if me == 0 && !bytes.Equal(back.Bytes(), global.Bytes()) {
		return fmt.Errorf("gathered tiles do not reassemble the global grid")
	}

	c.Barrier()
	if me == 0 {
		fmt.Printf("%dx%d halo exchange of a %dx%d tile verified on all ranks: %.1f us (virtual, %s)\n",
			dims[0], dims[1], tile, tile, elapsed*1e6, c.Profile().Name)
		colBytes := int64(tile * 8)
		rec, err := repro.Recommend(repro.Query{Bytes: colBytes, Profile: c.Profile()}, repro.GoalBalanced)
		if err != nil {
			return err
		}
		fmt.Printf("column halo is %d bytes; advice: %s — %s\n", colBytes, rec.Scheme, rec.Reason)
	}
	return nil
}
