package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/oracle"
	"repro/internal/perfmodel"
)

// The golden table of the collective schedules. Every (collective,
// topology) pair runs once or twice — odd world sizes, a root that is
// neither rank 0 nor a node leader — and the store's "collective"
// block keeps one row per run: every rank's integer virtual time,
// fabric counters and error, and the run's plan-engine attribution
// (kernel, chunk, pipelined, fused and staged fields; the plan-cache
// and compile counters move with benign build races and are left
// out). Caches run cold, so the order in which the ranks' goroutines
// touch memory cannot move a row, and every move stays under
// datatype.ParallelPackThreshold, so no row depends on the core count.
// The received bytes are checked against the Type.Pack/Type.Unpack
// oracle. A change that means to move a row records it with
// -golden-update and says why.

// collGolden is one recorded collective run.
type collGolden struct {
	name string
	size int
	prof *perfmodel.Profile
	// want is the oracle's bytes for a rank's receive buffer; nil: the
	// rank receives nothing.
	want func(rank int) []byte
	// body runs the collective on one rank and returns the buffer it
	// received into.
	body func(c *Comm) (buf.Block, error)
}

// goldenVec commits a fresh vector of doubles.
func goldenVec(t *testing.T, count, block, stride int) *datatype.Type {
	ty, err := datatype.Vector(count, block, stride, datatype.Float64)
	return mustCommit(t, ty, err)
}

// unpackAt unpacks packed as count instances of ty into dst at byte
// offset off.
func unpackAt(t *testing.T, packed []byte, count int, ty *datatype.Type, dst buf.Block, off int) {
	t.Helper()
	if _, err := ty.Unpack(buf.FromBytes(packed), count, dst.Slice(off, dst.Len()-off)); err != nil {
		t.Fatal(err)
	}
}

// goldenBcast broadcasts (count × ty) from root.
func goldenBcast(t *testing.T, name string, prof *perfmodel.Profile, size, root int, ty *datatype.Type, count int) collGolden {
	src := typedBuf(ty, count, 0x5B)
	relayed := buf.Alloc(typedNeed(ty, count))
	unpackAt(t, packView(t, ty, count, src), count, ty, relayed, 0)
	return collGolden{name, size, prof,
		func(r int) []byte {
			if r == root {
				return src.Bytes()
			}
			return relayed.Bytes()
		},
		func(c *Comm) (buf.Block, error) {
			b := buf.Alloc(typedNeed(ty, count))
			if c.Rank() == root {
				buf.CopyAt(b, 0, src, 0, src.Len())
			}
			return b, c.BcastType(b, count, ty, root)
		}}
}

// slotsOracle returns a receive buffer holding every rank's
// contribution (count × sendTy, filled with rankSeed) in its
// equal-count slot of recvTy.
func slotsOracle(t *testing.T, size int, sendTy *datatype.Type, count int, recvTy *datatype.Type, recvCount int) buf.Block {
	pitch := recvCount * int(recvTy.Extent())
	out := buf.Alloc((size-1)*pitch + typedNeed(recvTy, recvCount))
	for r := 0; r < size; r++ {
		unpackAt(t, packView(t, sendTy, count, typedBuf(sendTy, count, rankSeed(r))), recvCount, recvTy, out, r*pitch)
	}
	return out
}

// goldenGather gathers every rank's (count × sendTy) into root's
// (recvCount × recvTy) slots.
func goldenGather(t *testing.T, name string, prof *perfmodel.Profile, size, root int, sendTy *datatype.Type, count int, recvTy *datatype.Type, recvCount int) collGolden {
	want := slotsOracle(t, size, sendTy, count, recvTy, recvCount)
	return collGolden{name, size, prof,
		func(r int) []byte {
			if r == root {
				return want.Bytes()
			}
			return nil
		},
		func(c *Comm) (buf.Block, error) {
			recv := buf.Alloc(0)
			if c.Rank() == root {
				recv = buf.Alloc(want.Len())
			}
			send := typedBuf(sendTy, count, rankSeed(c.Rank()))
			return recv, c.GatherType(send, count, sendTy, recv, recvCount, recvTy, root)
		}}
}

// goldenAllgather gathers every rank's (count × sendTy) into every
// rank's (recvCount × recvTy) slots.
func goldenAllgather(t *testing.T, name string, prof *perfmodel.Profile, size int, sendTy *datatype.Type, count int, recvTy *datatype.Type, recvCount int) collGolden {
	want := slotsOracle(t, size, sendTy, count, recvTy, recvCount)
	return collGolden{name, size, prof,
		func(int) []byte { return want.Bytes() },
		func(c *Comm) (buf.Block, error) {
			recv := buf.Alloc(want.Len())
			send := typedBuf(sendTy, count, rankSeed(c.Rank()))
			return recv, c.AllgatherType(send, count, sendTy, recv, recvCount, recvTy)
		}}
}

// vGeometry is the irregular layout of the v-collective rows: rank r
// contributes (r+1)·k instances of a 4-double gapped vector (32 packed
// bytes each), held at the root as 2(r+1)·k instances of a 2-double
// vector at displacements that leave a one-instance gap between slots
// and run in reverse rank order.
func vGeometry(t *testing.T, size, k int) (rankTy, rootTy *datatype.Type, counts, displs []int) {
	rankTy, rootTy = goldenVec(t, 4, 1, 2), goldenVec(t, 2, 1, 3)
	counts, displs = make([]int, size), make([]int, size)
	at := 0
	for r := size - 1; r >= 0; r-- {
		counts[r], displs[r] = 2*(r+1)*k, at
		at += counts[r] + 1
	}
	return rankTy, rootTy, counts, displs
}

func vRootLen(rootTy *datatype.Type, counts, displs []int) int {
	n := 0
	for r := range counts {
		n = max(n, displs[r]*int(rootTy.Extent())+typedNeed(rootTy, counts[r]))
	}
	return n
}

func goldenGatherv(t *testing.T, name string, size, root, k int) collGolden {
	sendTy, recvTy, counts, displs := vGeometry(t, size, k)
	want := buf.Alloc(vRootLen(recvTy, counts, displs))
	for r := 0; r < size; r++ {
		packed := packView(t, sendTy, (r+1)*k, typedBuf(sendTy, (r+1)*k, rankSeed(r)))
		unpackAt(t, packed, counts[r], recvTy, want, displs[r]*int(recvTy.Extent()))
	}
	return collGolden{name, size, smallChunkProfile(),
		func(r int) []byte {
			if r == root {
				return want.Bytes()
			}
			return nil
		},
		func(c *Comm) (buf.Block, error) {
			recv := buf.Alloc(0)
			if c.Rank() == root {
				recv = buf.Alloc(want.Len())
			}
			n := (c.Rank() + 1) * k
			return recv, c.GathervType(typedBuf(sendTy, n, rankSeed(c.Rank())), n, sendTy, recv, counts, displs, recvTy, root)
		}}
}

func goldenScatterv(t *testing.T, name string, size, root, k int) collGolden {
	recvTy, sendTy, counts, displs := vGeometry(t, size, k)
	src := buf.Alloc(vRootLen(sendTy, counts, displs))
	src.FillPattern(0x3D)
	wants := make([][]byte, size)
	for r := 0; r < size; r++ {
		slot := src.Slice(displs[r]*int(sendTy.Extent()), src.Len()-displs[r]*int(sendTy.Extent()))
		out := buf.Alloc(typedNeed(recvTy, (r+1)*k))
		unpackAt(t, packView(t, sendTy, counts[r], slot), (r+1)*k, recvTy, out, 0)
		wants[r] = out.Bytes()
	}
	return collGolden{name, size, smallChunkProfile(),
		func(r int) []byte { return wants[r] },
		func(c *Comm) (buf.Block, error) {
			send := buf.Alloc(0)
			if c.Rank() == root {
				send = src
			}
			n := (c.Rank() + 1) * k
			recv := buf.Alloc(typedNeed(recvTy, n))
			return recv, c.ScattervType(send, counts, displs, sendTy, recv, n, recvTy, root)
		}}
}

// goldenSplit splits the world by color (then key), reports each
// rank's (new size, new rank) and runs a small AllgatherType on the
// child. groups lists each color's world ranks in child-rank order.
func goldenSplit(t *testing.T, name string, prof *perfmodel.Profile, size int, color, key func(r int) int, groups [][]int) collGolden {
	ty := goldenVec(t, 8, 1, 2)
	wants := make([][]byte, size)
	for _, g := range groups {
		pitch := int(ty.Extent())
		slots := buf.Alloc((len(g)-1)*pitch + typedNeed(ty, 1))
		for i, w := range g {
			unpackAt(t, packView(t, ty, 1, typedBuf(ty, 1, rankSeed(w))), 1, ty, slots, i*pitch)
		}
		for i, w := range g {
			wants[w] = append([]byte(fmt.Sprintf("%d/%d ", i, len(g))), slots.Bytes()...)
		}
	}
	return collGolden{name, size, prof,
		func(r int) []byte { return wants[r] },
		func(c *Comm) (buf.Block, error) {
			nc, err := c.Split(color(c.Rank()), key(c.Rank()))
			if err != nil {
				return buf.Alloc(0), err
			}
			recv := buf.Alloc((nc.Size()-1)*int(ty.Extent()) + typedNeed(ty, 1))
			err = nc.AllgatherType(typedBuf(ty, 1, rankSeed(c.Rank())), 1, ty, recv, 1, ty)
			return buf.FromBytes(append([]byte(fmt.Sprintf("%d/%d ", nc.Rank(), nc.Size())), recv.Bytes()...)), err
		}}
}

// collGoldenCases lists the recorded runs. flat is the generic profile
// with an 8 KiB internal chunk (many pipeline chunks per leg); hier
// groups three ranks per node with an intra-node latency discount, so
// the two-level schedules engage. The tree limit of both is the 64 KiB
// eager limit: 512 B legs are latency-bound, 128 KiB legs rendezvous.
func collGoldenCases(t *testing.T) []collGolden {
	flat, hier := smallChunkProfile, func() *perfmodel.Profile { return hierProfile(3) }
	small := func() *datatype.Type { return goldenVec(t, 64, 1, 2) }
	large := func() *datatype.Type { return goldenVec(t, 1<<14, 1, 2) }
	dense := func() *datatype.Type { return goldenVec(t, 1<<14, 1, 1) }
	gapped := func() *datatype.Type { return goldenVec(t, 3072, 1, 2) } // 24 KiB: linear gather of eager legs
	asym := func() *datatype.Type { return goldenVec(t, 32, 2, 3) }     // 512 B like small, other layout
	bytesOf := func(n int) *datatype.Type {
		ty, err := datatype.Contiguous(n, datatype.Byte)
		return mustCommit(t, ty, err)
	}
	cases := []collGolden{
		goldenBcast(t, "BcastType/tree", flat(), 7, 3, small(), 1),
		goldenBcast(t, "BcastType/tree.count3", flat(), 5, 3, small(), 3),
		goldenBcast(t, "BcastType/pipelined", flat(), 7, 3, large(), 1),
		goldenBcast(t, "BcastType/pipelined.resized", flat(), 5, 3, interleavedResized(t), 1<<14),
		goldenBcast(t, "BcastType/dense-tree", flat(), 7, 3, dense(), 1),
		goldenBcast(t, "BcastType/two-level", hier(), 7, 4, small(), 1),
		goldenBcast(t, "BcastType/two-level.rdv", hier(), 7, 4, large(), 1),
		goldenGather(t, "GatherType/tree", flat(), 7, 3, small(), 1, small(), 1),
		goldenGather(t, "GatherType/tree.asym", flat(), 7, 3, small(), 1, asym(), 1),
		goldenGather(t, "GatherType/linear", flat(), 7, 3, gapped(), 1, gapped(), 1),
		goldenGather(t, "GatherType/linear.rdv", flat(), 5, 3, large(), 1, dense(), 1),
		goldenGatherv(t, "GathervType", 5, 3, 1),
		goldenGatherv(t, "GathervType.rdv", 5, 3, 1024),
		goldenScatterv(t, "ScattervType", 5, 3, 1),
		goldenScatterv(t, "ScattervType.rdv", 5, 3, 1024),
		goldenAllgather(t, "AllgatherType/ring", flat(), 7, small(), 1, small(), 1),
		goldenAllgather(t, "AllgatherType/ring.rdv", flat(), 5, large(), 1, large(), 1),
		goldenAllgather(t, "AllgatherType/packed-ring", flat(), 5, large(), 1, interleavedResized(t), 1<<14),
		goldenAllgather(t, "AllgatherType/two-level", hier(), 7, small(), 1, small(), 1),
		goldenAllgather(t, "AllgatherType/two-level.rdv", hier(), 7, large(), 1, large(), 1),
		goldenSplit(t, "Split", flat(), 7,
			func(r int) int { return r % 3 }, func(r int) int { return -r },
			[][]int{{6, 3, 0}, {4, 1}, {5, 2}}),
		// Color 0's child holds world ranks 0,3,1,4 in that order: two
		// nodes whose ranks interleave, so its allgather falls back to
		// the flat ring; color 1's members sit on three nodes alone.
		goldenSplit(t, "Split/scattered", hier(), 7,
			func(r int) int { return []int{0, 0, 1, 0, 0, 1, 1}[r] },
			func(r int) int { return []int{0, 2, 0, 1, 3, 1, 2}[r] },
			[][]int{{0, 3, 1, 4}, {2, 5, 6}}),
	}
	// The byte-buffer wrappers.
	for _, n := range []int{1000, 100 << 10} {
		src := buf.Alloc(n)
		src.FillPattern(0x6E)
		root := 3
		cases = append(cases, collGolden{fmt.Sprintf("Bcast.%d", n), 5, flat(),
			func(int) []byte { return src.Bytes() },
			func(c *Comm) (buf.Block, error) {
				b := buf.Alloc(n)
				if c.Rank() == root {
					buf.CopyAt(b, 0, src, 0, n)
				}
				return b, c.Bcast(b, root)
			}})
	}
	const contrib = 333
	all := slotsOracle(t, 5, bytesOf(contrib), 1, bytesOf(contrib), 1)
	return append(cases, collGolden{"Allgather", 5, flat(),
		func(int) []byte { return all.Bytes() },
		func(c *Comm) (buf.Block, error) {
			recv := buf.Alloc(all.Len())
			return recv, c.Allgather(typedBuf(bytesOf(contrib), 1, rankSeed(c.Rank())), recv)
		}})
}

// collGoldenRow runs one case and returns its recorded quantities as
// one line; the received bytes are checked on the way.
func collGoldenRow(t *testing.T, k collGolden) string {
	t.Helper()
	times := make([]int64, k.size)
	errs := make([]error, k.size)
	got := make([]buf.Block, k.size)
	comms := make([]*Comm, k.size)
	before := datatype.PlanStatsSnapshot()
	runErr := Run(k.size, Options{Profile: k.prof, ColdCaches: true, WallLimit: 30 * time.Second}, func(c *Comm) error {
		r := c.Rank()
		comms[r] = c
		got[r], errs[r] = k.body(c)
		times[r] = int64(c.clock.Now())
		return nil
	})
	plan := datatype.PlanStatsSnapshot().Sub(before)
	if runErr != nil {
		t.Fatalf("%s: world: %v", k.name, runErr)
	}
	var sb strings.Builder
	sb.WriteString(k.name)
	for r := 0; r < k.size; r++ {
		if want := k.want(r); errs[r] == nil && want != nil && !bytes.Equal(got[r].Bytes(), want) {
			t.Errorf("%s: rank %d received bytes that differ from the Type.Pack/Type.Unpack oracle", k.name, r)
		}
		fmt.Fprintf(&sb, " | r%d t=%d c=%s e=%s", r, times[r], nonZero(comms[r].Counters()), goldenErr(errs[r]))
	}
	// Only the engine attribution: compile, plan-cache and normalizer
	// counters move with which goroutine commits or looks up first.
	kept := datatype.PlanStats{
		ContigOps: plan.ContigOps, ContigBytes: plan.ContigBytes,
		StrideOps: plan.StrideOps, StrideBytes: plan.StrideBytes,
		GatherOps: plan.GatherOps, GatherBytes: plan.GatherBytes,
		BlockOps: plan.BlockOps, BlockBytes: plan.BlockBytes,
		ParallelOps: plan.ParallelOps, ParallelBytes: plan.ParallelBytes,
		ChunkOps: plan.ChunkOps, ChunkBytes: plan.ChunkBytes,
		PipelinedOps: plan.PipelinedOps, PipelinedBytes: plan.PipelinedBytes,
		FusedOps: plan.FusedOps, FusedBytes: plan.FusedBytes,
		StagedOps: plan.StagedOps, StagedBytes: plan.StagedBytes,
	}
	fmt.Fprintf(&sb, " | plan=%s", nonZero(kept))
	return sb.String()
}

// TestCollectiveGolden runs every recorded collective and compares its
// row with the store.
func TestCollectiveGolden(t *testing.T) {
	var rows []string
	for _, k := range collGoldenCases(t) {
		rows = append(rows, collGoldenRow(t, k))
	}
	oracle.Golden(t, "collective", rows)
}
