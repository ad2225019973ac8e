package figures

import (
	"fmt"
	"io"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// HaloStudy is E15: a 2-D/3-D halo exchange over subarray face types,
// comparing the typed collectives (AllgatherType over face layouts —
// fused self-leg, fused sendv remote legs past the eager limit)
// against the manual-pack pipeline the paper's schemes hand-roll (pack
// the face, run the contiguous collective over packed slots, unpack
// every slot into the halo layout). Each cell reports both strategies'
// modeled bandwidth and the PlanStats delta of the typed rounds, whose
// fused-vs-staged attribution shows which engine moved the faces.
//
// The grids are the classic stencil shapes: 4 ranks as a 2×2 tile grid
// exchanging column faces (strided, the paper's canonical layout
// family) and row faces (contiguous), and 8 ranks as a 2×2×2 brick
// grid exchanging the three plane orientations (contiguous,
// row-blocked and fully strided). Face slots land via
// extent-resized subarray types, the TEMPI-style trick that makes
// Allgather slot placement follow the halo geometry.
type HaloStudy struct {
	Profile *perfmodel.Profile
	Rounds  int
	Panels  []HaloPanel
}

// HaloPanel is one face orientation's sweep over tile sizes.
type HaloPanel struct {
	Name  string
	Dim   int
	Cells []HaloCell
}

// HaloCell is one (orientation, tile size) measurement.
type HaloCell struct {
	TileN     int
	FaceBytes int64
	// Virtual marks cells whose tiles exceeded MaxRealBytes and ran
	// with length-only buffers (costs modeled, no bytes moved).
	Virtual bool
	// TypedGBs and ManualGBs are the modeled exchange bandwidths of
	// the typed collective and the manual pack pipeline.
	TypedGBs, ManualGBs float64
	// Stats is the plan-counter delta over the typed rounds: fused
	// ops/bytes are the one-pass legs (self-leg always, remote legs
	// past the eager limit), staged ops/bytes the eager fallbacks.
	Stats datatype.PlanStats
}

// Speedup returns typed/manual bandwidth for the cell.
func (c HaloCell) Speedup() float64 {
	return ratio(c.TypedGBs, c.ManualGBs)
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

// BuildHaloStudy measures every halo geometry and tile size on the
// named profile. opt.Reps is the exchange-round count per cell;
// opt.MaxRealBytes bounds materialised tiles (larger cells run
// virtual, costs modeled on the virtual clock either way).
func BuildHaloStudy(profileName string, opt harness.Options) (*HaloStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	rounds := opt.Reps
	if rounds == 0 {
		rounds = 6
	}
	maxReal := opt.MaxRealBytes
	if maxReal == 0 {
		maxReal = 16 << 20
	}
	st := &HaloStudy{Profile: prof, Rounds: rounds}
	for _, g := range haloGeometries {
		panel := HaloPanel{Name: g.name, Dim: g.dim}
		for _, n := range haloTiles[g.dim] {
			cell, err := measureHaloCell(prof, g, n, rounds, maxReal)
			if err != nil {
				return nil, fmt.Errorf("figures: halo %s N=%d: %w", g.name, n, err)
			}
			panel.Cells = append(panel.Cells, cell)
		}
		st.Panels = append(st.Panels, panel)
	}
	return st, nil
}

// measureHaloCell runs one (geometry, tile) cell: the typed
// AllgatherType exchange and the manual pack → contiguous Allgather →
// unpack pipeline, both over the same face and slot types.
func measureHaloCell(prof *perfmodel.Profile, g haloGeometry, n, rounds int, maxReal int64) (HaloCell, error) {
	var tileBytes int64 = int64(n) * int64(n) * 8
	if g.dim == 3 {
		tileBytes *= int64(n)
	}
	virtual := tileBytes > maxReal
	var typedSec, manualSec float64
	var stats datatype.PlanStats
	var faceBytes int64
	err := mpi.Run(g.ranks, mpi.Options{Profile: prof}, func(c *mpi.Comm) error {
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
		return HaloCell{}, err
	}
	moved := float64(faceBytes) * 2 * float64(rounds) // both halo slots, per round
	return HaloCell{
		TileN:     n,
		FaceBytes: faceBytes,
		Virtual:   virtual,
		TypedGBs:  gbps(moved, typedSec),
		ManualGBs: gbps(moved, manualSec),
		Stats:     stats,
	}, nil
}

// Render prints the study as one table per orientation with the typed
// rounds' fused-vs-staged attribution, then the closing claim line.
func (st *HaloStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E15 halo-exchange study — %s (%d rounds, virtual time) ==\n\n", st.Profile.Name, st.Rounds)
	for _, p := range st.Panels {
		fmt.Fprintf(w, "%dD %s: typed collective vs manual pack+collective\n", p.Dim, p.Name)
		for _, c := range p.Cells {
			mark := ""
			if c.Virtual {
				mark = " (virtual)"
			}
			fmt.Fprintf(w, "  N=%-6d face %8d B  typed %7.3f GB/s  manual %7.3f GB/s  typed/manual %.2fx%s\n",
				c.TileN, c.FaceBytes, c.TypedGBs, c.ManualGBs, c.Speedup(), mark)
			fmt.Fprintf(w, "           typed rounds: %v\n", c.Stats)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "typed collectives are %.2fx manual pack on the contiguous 3-D planes at the largest tile\n\n",
		st.TypedSpeedupAt("3d-z plane (contig)"))
	return nil
}

// TypedSpeedupAt returns typed/manual bandwidth for the named panel at
// the largest measured tile (0 when the panel is unknown).
func (st *HaloStudy) TypedSpeedupAt(panelName string) float64 {
	for _, p := range st.Panels {
		if p.Name != panelName || len(p.Cells) == 0 {
			continue
		}
		return p.Cells[len(p.Cells)-1].Speedup()
	}
	return 0
}
