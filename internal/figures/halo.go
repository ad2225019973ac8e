package figures

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/plot"
)

// haloStudy is E15: a 2-D/3-D halo exchange over subarray face types,
// comparing the typed collectives (AllgatherType over face layouts —
// fused self-leg, fused sendv remote legs past the eager limit)
// against the manual-pack pipeline the paper's schemes hand-roll (pack
// the face, run the contiguous collective over packed slots, unpack
// every slot into the halo layout). Each cell reports both strategies'
// modeled bandwidth over opt.Reps exchange rounds and the PlanStats
// delta of the typed rounds, whose fused-vs-staged attribution shows
// which engine moved the faces (the self-leg is always fused; staged
// ops are the eager fallbacks).
//
// The grids are the classic stencil shapes: 4 ranks as a 2×2 tile grid
// exchanging column faces (strided, the paper's canonical layout
// family) and row faces (contiguous), and 8 ranks as a 2×2×2 brick
// grid exchanging the three plane orientations (contiguous,
// row-blocked and fully strided). Face slots land via
// extent-resized subarray types, the TEMPI-style trick that makes
// Allgather slot placement follow the halo geometry.
func haloStudy() *Study {
	var panels []Panel
	for _, g := range haloGeometries {
		panels = append(panels, Panel{Config: plot.Config{
			Title: fmt.Sprintf("%dD %s: typed collective vs manual pack+collective", g.dim, g.name)},
			Variant: g.name, Note: true})
	}
	return &Study{
		ID: "E15", Name: "halo", Title: "halo-exchange study",
		Detail:  func(r *Result) string { return fmt.Sprintf(" (%d rounds, virtual time)", r.opt.Reps) },
		MaxReps: 8,
		Measure: func(r *Result, opt harness.Options) error {
			for _, g := range haloGeometries {
				for _, n := range haloTiles[g.dim] {
					if err := measureHalo(r, g, n, opt); err != nil {
						return fmt.Errorf("figures: halo %s N=%d: %w", g.name, n, err)
					}
				}
				r.printf(g.name, "\n")
			}
			return nil
		},
		Panels: panels,
		// The contiguous faces pay pack+unpack only on the manual side.
		Claims: []Claim{{Metric: "typedSpeedup(x)",
			Line:  "typed collectives are %.2fx manual pack on the contiguous 3-D planes at the largest tile\n",
			Value: func(r *Result) float64 { return r.last(per("3d-z plane (contig)", "typed", "manual")) },
			Holds: above(1)}},
		Spaced: true,
	}
}

// haloGeometry describes one exchange orientation: the process grid,
// the sub-communicator split for the exchange axis, and the face and
// halo-slot types for a tile of N.
type haloGeometry struct {
	name  string
	dim   int
	ranks int
	color func(rank int) int
	key   func(rank int) int
	// build returns the committed boundary-face type over the tile,
	// the committed (extent-resized) halo-slot type over the slab, and
	// the slab size in bytes, for an N-point tile edge.
	build func(n int) (face, slot *datatype.Type, slabBytes int64, err error)
}

// faceSlot finishes a geometry's build: the first construction error,
// else both types committed.
func faceSlot(face, slot *datatype.Type, slabBytes int64, errs ...error) (*datatype.Type, *datatype.Type, int64, error) {
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	for _, ty := range []*datatype.Type{face, slot} {
		if err := ty.Commit(); err != nil {
			return nil, nil, 0, err
		}
	}
	return face, slot, slabBytes, nil
}

// resizedSlot builds the halo-slot type: a subarray face of the slab
// whose extent is resized to the slot pitch, so Allgather slot r lands
// at the r-th halo position.
func resizedSlot(sizes, subsizes, starts []int, pitch int64) (*datatype.Type, error) {
	sub, err := datatype.Subarray(sizes, subsizes, starts, datatype.OrderC, datatype.Float64)
	if err != nil {
		return nil, err
	}
	return datatype.Resized(sub, 0, pitch)
}

var haloGeometries = []haloGeometry{
	{
		name: "2d-x column (strided)", dim: 2, ranks: 4,
		color: func(r int) int { return r >> 1 }, // grid row
		key:   func(r int) int { return r & 1 },  // grid column
		build: func(n int) (*datatype.Type, *datatype.Type, int64, error) {
			face, faceErr := datatype.Subarray([]int{n, n}, []int{n, 1}, []int{0, n - 1}, datatype.OrderC, datatype.Float64)
			slot, slotErr := resizedSlot([]int{n, 2}, []int{n, 1}, []int{0, 0}, 8)
			return faceSlot(face, slot, int64(n)*2*8, faceErr, slotErr)
		},
	},
	{
		name: "2d-y row (contig)", dim: 2, ranks: 4,
		color: func(r int) int { return r & 1 },
		key:   func(r int) int { return r >> 1 },
		build: func(n int) (*datatype.Type, *datatype.Type, int64, error) {
			face, faceErr := datatype.Subarray([]int{n, n}, []int{1, n}, []int{n - 1, 0}, datatype.OrderC, datatype.Float64)
			slot, slotErr := datatype.Contiguous(n, datatype.Float64)
			return faceSlot(face, slot, int64(n)*2*8, faceErr, slotErr)
		},
	},
	{
		name: "3d-z plane (contig)", dim: 3, ranks: 8,
		color: func(r int) int { return r & 3 },
		key:   func(r int) int { return r >> 2 },
		build: func(n int) (*datatype.Type, *datatype.Type, int64, error) {
			face, faceErr := datatype.Subarray([]int{n, n, n}, []int{1, n, n}, []int{n - 1, 0, 0}, datatype.OrderC, datatype.Float64)
			slot, slotErr := datatype.Contiguous(n*n, datatype.Float64)
			return faceSlot(face, slot, int64(n)*int64(n)*2*8, faceErr, slotErr)
		},
	},
	{
		name: "3d-y plane (row blocks)", dim: 3, ranks: 8,
		color: func(r int) int { return (r>>2)*2 + (r & 1) },
		key:   func(r int) int { return (r >> 1) & 1 },
		build: func(n int) (*datatype.Type, *datatype.Type, int64, error) {
			face, faceErr := datatype.Subarray([]int{n, n, n}, []int{n, 1, n}, []int{0, n - 1, 0}, datatype.OrderC, datatype.Float64)
			slot, slotErr := resizedSlot([]int{n, 2, n}, []int{n, 1, n}, []int{0, 0, 0}, int64(n)*8)
			return faceSlot(face, slot, int64(n)*int64(n)*2*8, faceErr, slotErr)
		},
	},
	{
		name: "3d-x plane (strided)", dim: 3, ranks: 8,
		color: func(r int) int { return r >> 1 },
		key:   func(r int) int { return r & 1 },
		build: func(n int) (*datatype.Type, *datatype.Type, int64, error) {
			face, faceErr := datatype.Subarray([]int{n, n, n}, []int{n, n, 1}, []int{0, 0, n - 1}, datatype.OrderC, datatype.Float64)
			slot, slotErr := resizedSlot([]int{n, n, 2}, []int{n, n, 1}, []int{0, 0, 0}, 8)
			return faceSlot(face, slot, int64(n)*int64(n)*2*8, faceErr, slotErr)
		},
	},
}

// haloTiles lists the tile edge sizes per dimensionality: an
// eager-sized face, an intermediate one, and a rendezvous-sized face
// whose remote legs ride the fused sendv path (its tile exceeds
// MaxRealBytes and runs virtual).
var haloTiles = map[int][]int{
	2: {256, 1024, 16384},
	3: {16, 64, 256},
}

// measureHalo runs one (geometry, tile) cell: the typed AllgatherType
// exchange and the manual pack → contiguous Allgather → unpack
// pipeline, both over the same face and slot types. Tiles over
// MaxRealBytes run virtual: costs modeled, no bytes moved.
func measureHalo(r *Result, g haloGeometry, n int, opt harness.Options) error {
	var tileBytes int64 = int64(n) * int64(n) * 8
	if g.dim == 3 {
		tileBytes *= int64(n)
	}
	rounds, virtual := opt.Reps, tileBytes > opt.MaxRealBytes
	var typedSec, manualSec float64
	var stats datatype.PlanStats
	var faceBytes int64
	err := mpi.Run(g.ranks, mpi.Options{Profile: r.Profile}, func(c *mpi.Comm) error {
		grp, err := c.Split(g.color(c.Rank()), g.key(c.Rank()))
		if err != nil {
			return err
		}
		face, slot, slabBytes, err := g.build(n)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			faceBytes = face.Size()
		}
		alloc := func(bytes int64) buf.Block {
			if virtual {
				return buf.Virtual(int(bytes))
			}
			b := buf.Alloc(int(bytes))
			return b
		}
		tile := alloc(tileBytes)
		tile.FillPattern(byte(0x40 + c.Rank()))
		slab := alloc(slabBytes)

		// Typed leg: the layout-aware collective straight between the
		// tile's face and the slab's halo slots.
		c.Barrier()
		before := datatype.PlanStatsSnapshot()
		c.Barrier() // no rank starts before every rank's snapshot
		t0 := c.Wtime()
		for r := 0; r < rounds; r++ {
			if err := grp.AllgatherType(tile, 1, face, slab, 1, slot); err != nil {
				return err
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			typedSec = c.Wtime() - t0
			stats = datatype.PlanStatsSnapshot().Sub(before)
		}
		c.Barrier()

		// Manual leg: pack the face, contiguous Allgather over packed
		// slots, unpack every slot into the same halo layout.
		scratch := alloc(face.Size())
		packedSlab := alloc(face.Size() * int64(grp.Size()))
		c.Barrier()
		t0 = c.Wtime()
		for r := 0; r < rounds; r++ {
			var pos int64
			if err := c.Pack(tile, 1, face, scratch, &pos); err != nil {
				return err
			}
			if err := grp.Allgather(scratch, packedSlab); err != nil {
				return err
			}
			for s := 0; s < grp.Size(); s++ {
				view := slab.Slice(int(int64(s)*slot.Extent()), slab.Len()-int(int64(s)*slot.Extent()))
				p := int64(s) * face.Size()
				if err := c.Unpack(packedSlab, &p, view, 1, slot); err != nil {
					return err
				}
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			manualSec = c.Wtime() - t0
		}
		return nil
	})
	if err != nil {
		return err
	}
	moved := float64(faceBytes) * 2 * float64(rounds) // both halo slots, per round
	typed, manual := gbps(moved, typedSec), gbps(moved, manualSec)
	r.add(Curve{Name: "typed", Variant: g.name}, float64(n), typed)
	r.add(Curve{Name: "manual", Variant: g.name}, float64(n), manual)
	mark := ""
	if virtual {
		mark = " (virtual)"
	}
	r.printf(g.name, "  N=%-6d face %8d B  typed %7.3f GB/s  manual %7.3f GB/s  typed/manual %.2fx%s\n           typed rounds: %v\n",
		n, faceBytes, typed, manual, ratio(typed, manual), mark, stats)
	return nil
}
