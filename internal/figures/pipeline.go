package figures

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/plot"
)

// pipelineStudy is E16: the software-pipelined chunk engine against
// the serial chunk loop and the fused rendezvous, across the paper's
// layouts and a sweep of internal chunk sizes (Points), on the virtual
// clock.
//
// Each p2p panel fixes the paper's rendezvous-sized message (Bytes)
// and sweeps the internal chunk size, comparing three protocol paths
// moving the same typed payload between two ranks:
//
//   - serial: SendType — the measured installations' chunk loop, pack
//     then inject per chunk with no overlap (§2.3);
//   - pipelined: SendpType — the software pipeline, pack of chunk
//     k+1 modelled overlapping the injection of chunk k
//     (memsim.PipelinedChunkCost), the bytes on the one-pass drain;
//   - fused: SendvType — the zero-copy rendezvous, one pass straight
//     into the receiver's buffer (no chunking at all), the upper
//     bound the pipeline approaches from below.
//
// The collective note compares the pipelined scatter+allgather
// broadcast against the binomial tree at 8 ranks across message sizes
// (the size axis). Every pipelined cell carries its PlanStats delta —
// the PipelinedOps/PipelinedBytes chunk attribution — plus the modeled
// overlap fraction (1 - pipelined/serial).
func pipelineStudy() *Study {
	var panels []Panel
	for _, g := range pipelineGeometries {
		panels = append(panels, Panel{Config: plot.Config{
			Title:  g.name + ": serial vs pipelined vs fused bandwidth (GB/s) across internal chunk sizes",
			XLabel: "internal chunk bytes", YLabel: "GB/s", LogX: true,
		}, Variant: g.name, Curves: []Curve{{Name: "serial", Label: "serial chunk loop (SendType)"},
			{Name: "pipelined", Label: "pipelined chunk engine (SendpType)"}, {Name: "fused", Label: "fused zero-copy (SendvType)"}}},
			Panel{Config: plot.Config{Title: g.name + " per chunk size:"}, Variant: g.name, Note: true})
	}
	speedup := func(r *Result) float64 {
		return r.at(per("everyOther", "pipelined", "serial"), float64(r.Profile.InternalChunk()))
	}
	return &Study{
		ID: "E16", Name: "pipeline", Title: "pipelined chunk engine",
		Detail: func(r *Result) string { return fmt.Sprintf(" (%d-byte messages, virtual clock)", r.Bytes) },
		Points: []float64{128 << 10, 256 << 10, 512 << 10, 1 << 20}, Bytes: 4 << 20,
		Sizes:   fixed(256<<10, 1<<20, 4<<20),
		Measure: measurePipeline,
		Panels: append(panels, Panel{Config: plot.Config{
			Title: "BcastType at 8 ranks: pipelined scatter+allgather vs binomial tree (completion seconds):"},
			Variant: "bcast", Note: true}),
		Claims: []Claim{{Metric: "pipelinedSpeedup(x)",
			Line:  "the pipelined chunk engine is %.2fx the serial loop on every-other doubles at the profile's %d-byte chunks\n",
			Args:  func(r *Result) []any { return []any{speedup(r), r.Profile.InternalChunk()} },
			Value: speedup,
			Holds: atLeast(1.3)}},
		Spaced: true,
	}
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

// vectorFor builds the committed vector covering n payload bytes with
// the given block/stride (in float64 elements).
func vectorFor(n int64, block, stride int) (*datatype.Type, error) {
	count := int(n) / (block * 8)
	if count < 1 {
		count = 1
	}
	ty, err := datatype.Vector(count, block, stride, datatype.Float64)
	if err != nil {
		return nil, err
	}
	return ty, ty.Commit()
}

// measurePipeline fills the p2p panels, one cell per (layout, chunk
// size), then the collective note, one row per size.
func measurePipeline(r *Result, _ harness.Options) error {
	for _, g := range pipelineGeometries {
		for _, chunk := range r.Points {
			if err := measureChunks(r, g.name, g.block, g.stride, int64(chunk)); err != nil {
				return err
			}
		}
		r.printf(g.name, "\n")
	}
	for _, n := range r.sizes {
		ty, err := vectorFor(n, 1, 2)
		if err != nil {
			return err
		}
		pipedRun, err := bcastRun(r.Profile.Name, 8, ty, func(c *mpi.Comm, blk buf.Block) error { return c.BcastType(blk, 1, ty, 0) })
		if err != nil {
			return err
		}
		treeRun, err := bcastRun(r.Profile.Name, 8, ty, func(c *mpi.Comm, blk buf.Block) error { return treeBcast(c, blk, ty) })
		if err != nil {
			return err
		}
		piped, tree, ps := pipedRun.Ends[0], treeRun.Ends[0], pipedRun.Plan
		r.add(Curve{Name: "tree", Variant: "bcast"}, float64(n), tree)
		r.add(Curve{Name: "pipelined", Variant: "bcast"}, float64(n), piped)
		r.printf("bcast", "  %9d B  tree %.3gs  pipelined %.3gs  speedup %.2fx  overlap %4.1f%%  %v\n",
			n, tree, piped, ratio(tree, piped), 100*overlap(piped, tree), ps)
	}
	r.printf("bcast", "\n")
	return nil
}

// overlap is the modeled overlap fraction of a pipelined time against
// its unpipelined one.
func overlap(piped, serial float64) float64 {
	if serial <= 0 {
		return 0
	}
	return 1 - piped/serial
}

// measureChunks fills one (layout, chunk size) cell: the same typed
// payload under the three protocol paths, timed on the sender's
// virtual clock with cold caches so every cell prices the same way.
// The chunk size is a hierarchy calibration, so each cell runs on a
// profile copy with Mem.InternalChunk swept.
func measureChunks(r *Result, layout string, block, stride int, chunk int64) error {
	ty, err := vectorFor(r.Bytes, block, stride)
	if err != nil {
		return err
	}
	prof := *r.Profile
	prof.Mem.InternalChunk = chunk
	var runs [3]mpi.Measured // serial, pipelined, fused
	for i, send := range []func(c *mpi.Comm, src buf.Block) error{
		func(c *mpi.Comm, src buf.Block) error { return c.SendType(src, 1, ty, 1, 0) },
		func(c *mpi.Comm, src buf.Block) error { return c.SendpType(src, 1, ty, 1, 0) },
		func(c *mpi.Comm, src buf.Block) error { return c.SendvType(src, 1, ty, 1, 0) },
	} {
		runs[i], err = mpi.Measure(mpi.World{Ranks: 2, Profile: &prof, ColdCaches: true}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				return send(c, buf.Alloc(int(ty.Extent())))
			}
			_, err := c.Recv(buf.Alloc(int(ty.Size())), 0, 0)
			return err
		})
		if err != nil {
			return err
		}
	}
	serial, piped, fused, ps := runs[0].Ends[0], runs[1].Ends[0], runs[2].Ends[0], runs[1].Plan
	bytes, x := float64(ty.Size()), float64(chunk)
	s, p, f := gbps(bytes, serial), gbps(bytes, piped), gbps(bytes, fused)
	r.add(Curve{Name: "serial", Variant: layout}, x, s)
	r.add(Curve{Name: "pipelined", Variant: layout}, x, p)
	r.add(Curve{Name: "fused", Variant: layout}, x, f)
	r.printf(layout, "  %9d B chunks  serial %6.2f GB/s  pipelined %6.2f GB/s  fused %6.2f GB/s  overlap %4.1f%%  %v\n",
		chunk, s, p, f, 100*overlap(piped, serial), ps)
	return nil
}

// bcastRun runs bcast from rank 0 on ranks ranks of the named
// installation, caches cold, each rank's buffer one instance of ty, and
// ends every rank at a closing barrier, so the run's Ends[0] is the
// moment the last rank holds the message.
func bcastRun(profileName string, ranks int, ty *datatype.Type, bcast func(c *mpi.Comm, blk buf.Block) error) (mpi.Measured, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return mpi.Measured{}, err
	}
	return mpi.Measure(mpi.World{Ranks: ranks, Profile: prof, ColdCaches: true}, func(c *mpi.Comm) error {
		blk := buf.Alloc(int(ty.Extent()))
		if c.Rank() == 0 {
			blk.FillPattern(0x2F)
		}
		if err := bcast(c, blk); err != nil {
			return err
		}
		c.Barrier()
		return nil
	})
}

// treeBcast broadcasts blk from rank 0 over BcastType's binomial tree,
// written out in typed point-to-point legs: each rank receives from
// rank−mask and relays to rank+mask with the fused rendezvous, the
// schedule BcastType keeps at or under its CollectiveTreeLimit.
func treeBcast(c *mpi.Comm, blk buf.Block, ty *datatype.Type) error {
	mask := 1
	for ; mask < c.Size(); mask <<= 1 {
		if c.Rank()&mask != 0 {
			if _, err := c.RecvType(blk, 1, ty, c.Rank()-mask, 0); err != nil {
				return err
			}
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if c.Rank()+mask < c.Size() {
			if err := c.SendvType(blk, 1, ty, c.Rank()+mask, 0); err != nil {
				return err
			}
		}
	}
	return nil
}
