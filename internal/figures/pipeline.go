package figures

import (
	"fmt"
	"io"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/stats"
)

// PipelineStudy is E16: the software-pipelined chunk engine against
// the serial chunk loop and the fused rendezvous, across the paper's
// layouts and a sweep of internal chunk sizes, on the virtual clock.
//
// Each p2p panel fixes the paper's rendezvous-sized message and sweeps
// the internal chunk size, comparing three protocol paths moving the
// same typed payload between two ranks:
//
//   - serial: SendType — the measured installations' chunk loop, pack
//     then inject per chunk with no overlap (§2.3);
//   - pipelined: SendpType — the chunk-slot pipeline, pack of chunk
//     k+1 overlapped against the injection of chunk k through the
//     bounded slot ring (memsim.PipelinedChunkCost);
//   - fused: SendvType — the zero-copy rendezvous, one pass straight
//     into the receiver's buffer (no chunking at all), the upper
//     bound the pipeline approaches from below.
//
// The collective panel compares the pipelined scatter+allgather
// broadcast against the binomial tree at 8 ranks across message
// sizes. Every pipelined cell carries its PlanStats delta — the
// PipelinedOps/PipelinedBytes chunk attribution — plus the modeled
// overlap fraction (1 - pipelined/serial).
type PipelineStudy struct {
	Profile *perfmodel.Profile
	// Bytes is the fixed p2p message size of the chunk-size sweep.
	Bytes int64

	Panels []PipelinePanel
	Bcast  PipelineBcastPanel
}

// PipelinePanel is one layout's serial/pipelined/fused comparison
// across chunk sizes.
type PipelinePanel struct {
	Layout string
	Chunks []int64 // swept internal chunk sizes

	Serial, Pipelined, Fused *stats.Series // GB/s against chunk size

	// Overlap is the realised overlap fraction per chunk size:
	// 1 - pipelined/serial on the virtual clock.
	Overlap []float64
	// Stats is the plan-counter delta of each pipelined cell; it must
	// attribute the payload to PipelinedOps/PipelinedBytes.
	Stats []datatype.PlanStats
}

// PipelineBcastPanel compares BcastType's pipelined scatter+allgather
// schedule against the binomial tree at a fixed world size.
type PipelineBcastPanel struct {
	Ranks int
	Sizes []int64

	Tree, Pipelined *stats.Series // completion seconds against size

	Overlap []float64
	Stats   []datatype.PlanStats
}

// pipelineGeometries are the swept layouts: the canonical
// every-other-double and the 64-element blocked variant (§4.7's
// block-size axis).
var pipelineGeometries = []struct {
	name          string
	block, stride int
}{
	{"everyOther", 1, 2},
	{"blocked64", 64, 128},
}

// BuildPipelineStudy measures the study for one profile. chunkSizes
// sweeps the internal chunk; bcastSizes the collective panel's message
// sizes. Zero-length slices select the defaults.
func BuildPipelineStudy(profileName string, chunkSizes, bcastSizes []int64) (*PipelineStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	if len(chunkSizes) == 0 {
		chunkSizes = []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20}
	}
	if len(bcastSizes) == 0 {
		bcastSizes = []int64{256 << 10, 1 << 20, 4 << 20}
	}
	st := &PipelineStudy{Profile: prof, Bytes: 4 << 20}
	for _, g := range pipelineGeometries {
		panel := PipelinePanel{
			Layout:    g.name,
			Serial:    &stats.Series{Label: "serial chunk loop (SendType)"},
			Pipelined: &stats.Series{Label: "pipelined slot ring (SendpType)"},
			Fused:     &stats.Series{Label: "fused zero-copy (SendvType)"},
		}
		for _, cs := range chunkSizes {
			if err := panel.measure(profileName, st.Bytes, g.block, g.stride, cs); err != nil {
				return nil, err
			}
			panel.Chunks = append(panel.Chunks, cs)
		}
		st.Panels = append(st.Panels, panel)
	}
	if err := st.Bcast.measure(profileName, bcastSizes); err != nil {
		return nil, err
	}
	return st, nil
}

// measure fills one (layout, chunk size) cell: the same typed payload
// under the three protocol paths, timed on the sender's virtual clock
// with cold caches so every cell prices the same way. The chunk size
// is a hierarchy calibration, so each cell runs on a profile copy
// with Mem.InternalChunk swept.
func (p *PipelinePanel) measure(profileName string, n int64, block, stride int, chunk int64) error {
	ty, err := vectorFor(n, block, stride)
	if err != nil {
		return err
	}
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return err
	}
	prof.Mem.InternalChunk = chunk
	run := func(send func(*mpi.Comm, buf.Block) error) (float64, error) {
		var elapsed float64
		err := mpi.Run(2, mpi.Options{Profile: prof, ColdCaches: true}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				src := buf.Alloc(int(ty.Extent()))
				if err := send(c, src); err != nil {
					return err
				}
				elapsed = c.Wtime()
				return nil
			}
			dst := buf.Alloc(int(ty.Size()))
			_, err := c.Recv(dst, 0, 0)
			return err
		})
		return elapsed, err
	}
	serial, err := run(func(c *mpi.Comm, src buf.Block) error { return c.SendType(src, 1, ty, 1, 0) })
	if err != nil {
		return err
	}
	before := datatype.PlanStatsSnapshot()
	piped, err := run(func(c *mpi.Comm, src buf.Block) error { return c.SendpType(src, 1, ty, 1, 0) })
	if err != nil {
		return err
	}
	p.Stats = append(p.Stats, datatype.PlanStatsSnapshot().Sub(before))
	fused, err := run(func(c *mpi.Comm, src buf.Block) error { return c.SendvType(src, 1, ty, 1, 0) })
	if err != nil {
		return err
	}
	bytes := float64(ty.Size())
	p.Serial.Append(float64(chunk), gbps(bytes, serial))
	p.Pipelined.Append(float64(chunk), gbps(bytes, piped))
	p.Fused.Append(float64(chunk), gbps(bytes, fused))
	overlap := 0.0
	if serial > 0 {
		overlap = 1 - piped/serial
	}
	p.Overlap = append(p.Overlap, overlap)
	return nil
}

// measure fills the collective panel: BcastType at 8 ranks, pipelined
// scatter+allgather against the binomial tree.
func (b *PipelineBcastPanel) measure(profileName string, sizes []int64) error {
	b.Ranks = 8
	b.Tree = &stats.Series{Label: "binomial tree"}
	b.Pipelined = &stats.Series{Label: "pipelined scatter+allgather"}
	for _, n := range sizes {
		ty, err := vectorFor(n, 1, 2)
		if err != nil {
			return err
		}
		run := func() (float64, error) {
			prof, err := perfmodel.ByName(profileName)
			if err != nil {
				return 0, err
			}
			var worst float64
			err = mpi.Run(b.Ranks, mpi.Options{Profile: prof, ColdCaches: true}, func(c *mpi.Comm) error {
				blk := buf.Alloc(int(ty.Extent()))
				if c.Rank() == 0 {
					blk.FillPattern(0x2F)
				}
				if err := c.BcastType(blk, 1, ty, 0); err != nil {
					return err
				}
				c.Barrier()
				if c.Rank() == 0 {
					worst = c.Wtime()
				}
				return nil
			})
			return worst, err
		}
		before := datatype.PlanStatsSnapshot()
		piped, err := run()
		if err != nil {
			return err
		}
		b.Stats = append(b.Stats, datatype.PlanStatsSnapshot().Sub(before))

		datatype.SetPipelinedChunks(false)
		tree, err := run()
		datatype.SetPipelinedChunks(true)
		if err != nil {
			return err
		}
		b.Sizes = append(b.Sizes, n)
		b.Tree.Append(float64(n), tree)
		b.Pipelined.Append(float64(n), piped)
		overlap := 0.0
		if tree > 0 {
			overlap = 1 - piped/tree
		}
		b.Overlap = append(b.Overlap, overlap)
	}
	return nil
}

// PipelinedSpeedupAt returns serial/pipelined bandwidth for the named
// layout at the chunk size closest to cs (0 when the layout is
// unknown).
func (st *PipelineStudy) PipelinedSpeedupAt(layoutName string, cs int64) float64 {
	for _, p := range st.Panels {
		if p.Layout == layoutName {
			best, _ := stats.Ratio("", p.Pipelined, p.Serial).Nearest(float64(cs))
			return best
		}
	}
	return 0
}

// Render prints the study: one bandwidth panel per layout across chunk
// sizes, the collective panel, the overlap attribution per cell, and
// the closing claim line.
func (st *PipelineStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E16 pipelined chunk engine — %s (%d-byte messages, virtual clock) ==\n\n", st.Profile.Name, st.Bytes)
	for _, p := range st.Panels {
		cfg := plot.Config{
			Title:  fmt.Sprintf("%s: serial vs pipelined vs fused bandwidth (GB/s) across internal chunk sizes", p.Layout),
			XLabel: "internal chunk bytes", YLabel: "GB/s", LogX: true,
		}
		if err := plot.ASCII(w, cfg, []*stats.Series{p.Serial, p.Pipelined, p.Fused}); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s per chunk size:\n", p.Layout)
		for i, cs := range p.Chunks {
			fmt.Fprintf(w, "  %9d B chunks  serial %6.2f GB/s  pipelined %6.2f GB/s  fused %6.2f GB/s  overlap %4.1f%%  %v\n",
				cs, p.Serial.Y[i], p.Pipelined.Y[i], p.Fused.Y[i], 100*p.Overlap[i], p.Stats[i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "BcastType at %d ranks: pipelined scatter+allgather vs binomial tree (completion seconds):\n", st.Bcast.Ranks)
	for i, n := range st.Bcast.Sizes {
		speed := ratio(st.Bcast.Tree.Y[i], st.Bcast.Pipelined.Y[i])
		fmt.Fprintf(w, "  %9d B  tree %.3gs  pipelined %.3gs  speedup %.2fx  overlap %4.1f%%  %v\n",
			n, st.Bcast.Tree.Y[i], st.Bcast.Pipelined.Y[i], speed, 100*st.Bcast.Overlap[i], st.Bcast.Stats[i])
	}
	fmt.Fprintln(w)
	chunk := st.Profile.InternalChunk()
	fmt.Fprintf(w, "the pipelined chunk engine is %.2fx the serial loop on every-other doubles at the profile's %d-byte chunks\n\n",
		st.PipelinedSpeedupAt("everyOther", chunk), chunk)
	return nil
}
