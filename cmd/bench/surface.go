package main

// surface.go is the benchmark's whole view of the program under test:
// every call into the repo's packages goes through one of the thin
// functions below, and no other file of cmd/bench imports a repro
// package (bench_test.go checks that). A later PR that removes one of
// these symbols keeps a wrapper of the same signature, or is preceded
// by a benchmark issue that re-points this file. The surface avoids
// what ROADMAP item 3 plans to fold or delete: the memsim cost family,
// the core.Price*/Recommend* entry points and the Set* global switches.

import (
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/figures"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

type (
	Block         = buf.Block
	PoolStats     = buf.PoolStats
	Type          = datatype.Type
	Plan          = datatype.Plan
	PlanStats     = datatype.PlanStats
	Pipeline      = datatype.ChunkPipeline
	PipeChunk     = datatype.PipeChunk
	Comm          = mpi.Comm
	Fabric        = simnet.Fabric
	FaultPlan     = simnet.FaultPlan
	Counters      = simnet.Counters
	MatchStats    = simnet.MatchStats
	Scheme        = core.Scheme
	Runner        = core.Runner
	Workload      = core.Workload
	JobMix        = harness.JobMix
	JobMixResult  = harness.JobMixResult
	RecoveryStats = harness.RecoveryStats
	Figure        = figures.Figure
)

const anySource = simnet.AnySource

// The seven ping-pong arms, in the order they run.
var ppArms = []struct {
	slug   string
	scheme Scheme
}{
	{"reference", core.Reference},
	{"copying", core.Copying},
	{"vector", core.VectorType},
	{"packv", core.PackVector},
	{"packc", core.PackCompiled},
	{"sendv", core.Sendv},
	{"pipelined", core.TypedPipelined},
}

// The schemes whose 1 GB slowdown the root bench_test.go reports.
var paperSchemes = []struct {
	slug   string
	scheme Scheme
}{
	{"copying", core.Copying},
	{"vector", core.VectorType},
	{"onesided", core.OneSided},
	{"packv", core.PackVector},
	{"packe", core.PackElement},
}

const (
	schemeCopying = core.Copying
	schemePackV   = core.PackVector
)

// §5 compares packing(v) at 1 GB against every other non-contiguous
// scheme of the paper.
var paperRivals = []Scheme{core.Buffered, core.VectorType, core.Subarray, core.OneSided, core.PackElement}

// --- core ---

func newRunner(s Scheme) (Runner, error) { return core.NewRunner(s) }
func forBytes(n int64) Workload          { return core.ForBytes(n) }

func runnerSetup(r Runner, c *Comm, w Workload, peer int) error { return r.Setup(c, w, peer) }
func runnerPing(r Runner) error                                 { return r.Ping() }
func runnerPong(r Runner) error                                 { return r.Pong() }
func runnerCheck(r Runner) error                                { return r.Check() }
func runnerTeardown(r Runner) error                             { return r.Teardown() }

// --- harness, figures, perfmodel ---

const mixBytes = 1 << 20 // per transfer, virtual

// paperJobMix is the jobmix workload's one op: 8 ring communicators
// over 256 ranks in nodes of 16, 4 transfers in flight per rank, 8
// rounds.
func paperJobMix() (JobMix, error) {
	p, err := perfmodel.ByName(profile)
	return JobMix{Ranks: 256, Jobs: 8, InFlight: 4, Rounds: 8, NodeSize: 16, Bytes: mixBytes, Profile: p}, err
}

func runJobMix(m JobMix) (JobMixResult, error) { return harness.RunJobMix(m) }

// sweepOptions is the figure sweep's measurement protocol: the paper's,
// at two repetitions, with payloads above 1 MiB virtual.
func sweepOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Reps = 2
	opt.MaxRealBytes = 1 << 20
	return opt
}

// measureCell runs one harness cell and returns its virtual seconds.
func measureCell(profile string, s Scheme, w Workload) (float64, error) {
	p, err := perfmodel.ByName(profile)
	if err != nil {
		return 0, err
	}
	m, err := harness.Measure(p, s, w, sweepOptions())
	return m.Time(), err
}

func defaultSizes(perDecade int) []int64 { return figures.DefaultSizes(perDecade) }

func buildFigure(profile string, sizes []int64) (*Figure, error) {
	return figures.Build(profile, sizes, sweepOptions())
}

func slowdownAt(f *Figure, s Scheme, n int64) (float64, error) { return f.SchemeSlowdownAt(s, n) }

// figureCell is one (scheme, size) measurement of a figure.
type figureCell struct {
	bytes    int64
	virtSec  float64
	real     bool // payload materialised, so Verified is meaningful
	verified bool
}

func figureCells(f *Figure) []figureCell {
	var out []figureCell
	for _, s := range core.Schemes() {
		for _, m := range f.Measurements[s] {
			out = append(out, figureCell{m.Bytes, m.Time(), !m.Workload.Virtual, m.Verified})
		}
	}
	return out
}

// --- mpi ---

// runWorld starts size ranks on the named installation profile; a
// non-nil fault plan arms the fabric with the default retry policy.
func runWorld(size int, profile string, faults *FaultPlan, body func(*Comm) error) error {
	p, err := perfmodel.ByName(profile)
	if err != nil {
		return err
	}
	return mpi.Run(size, mpi.Options{
		Profile:   p,
		WallLimit: 3 * time.Minute,
		Faults:    faults,
		Retry:     mpi.DefaultRetryPolicy(),
	}, body)
}

func commRank(c *Comm) int              { return c.Rank() }
func commBarrier(c *Comm)               { c.Barrier() }
func commWtime(c *Comm) float64         { return c.Wtime() }
func commCounters(c *Comm) Counters     { return c.Counters() }
func commMatchStats(c *Comm) MatchStats { return c.MatchStats() }

// flushCache is the paper's between-ping-pongs cache flush (§3.2) on
// the virtual machine: its cost is charged outside the timed window.
func flushCache(c *Comm) {
	c.Charge(c.Cache().FlushCost())
	c.Cache().Flush()
}

func commSend(c *Comm, b Block, dest, tag int) error { return c.Send(b, dest, tag) }

func commRecv(c *Comm, b Block, src, tag int) error {
	_, err := c.Recv(b, src, tag)
	return err
}

func commSendType(c *Comm, b Block, ty *Type, dest, tag int) error {
	return c.SendType(b, 1, ty, dest, tag)
}

func commSendpType(c *Comm, b Block, ty *Type, dest, tag int) error {
	return c.SendpType(b, 1, ty, dest, tag)
}

func commSendvType(c *Comm, b Block, ty *Type, dest, tag int) error {
	return c.SendvType(b, 1, ty, dest, tag)
}

func commRecvType(c *Comm, b Block, ty *Type, src, tag int) error {
	_, err := c.RecvType(b, 1, ty, src, tag)
	return err
}

func commAllgatherType(c *Comm, send, recv Block, ty *Type) error {
	return c.AllgatherType(send, 1, ty, recv, 1, ty)
}

// --- simnet ---

func newFabric(n int) *Fabric                            { return simnet.New(n) }
func uniformFaults(seed uint64, rate float64) *FaultPlan { return simnet.UniformFaults(seed, rate) }

// fabricDeliver injects a zero-byte eager envelope from src at dst.
func fabricDeliver(f *Fabric, src, dst, tag int) {
	f.Deliver(dst, &simnet.Message{Src: src, Tag: tag, Kind: simnet.KindEager})
}

func fabricMatch(f *Fabric, rank, src, tag int) bool { return f.Match(rank, 0, src, tag) != nil }

// --- buf ---

func allocAligned(n int) Block              { return buf.AllocAligned(n) }
func alloc(n int) Block                     { return buf.Alloc(n) }
func bufCopy(dst, src Block) int            { return buf.Copy(dst, src) }
func bufEqual(a, b Block) bool              { return buf.Equal(a, b) }
func fillPattern(b Block, seed byte)        { b.FillPattern(seed) }
func zeroBlock(b Block)                     { b.Zero() }
func getPooledFor(rank, n int) Block        { return buf.GetPooledFor(rank, n) }
func putPooled(b Block)                     { buf.PutPooled(b) }
func poolStatsSnapshot() PoolStats          { return buf.PoolStatsSnapshot() }
func poolStatsSub(a, b PoolStats) PoolStats { return a.Sub(b) }
func checksumOf(b Block) uint64             { return buf.ChecksumOf(b) }

// --- datatype ---

// vectorType builds and commits Vector(count, blocklen, stride, Float64).
func vectorType(count, blocklen, stride int) (*Type, error) {
	ty, err := datatype.Vector(count, blocklen, stride, datatype.Float64)
	if err != nil {
		return nil, err
	}
	return ty, ty.Commit()
}

func compilePlan(ty *Type) (*Plan, error) { return ty.CompilePlan(1) }

func typePack(ty *Type, src, dst Block) error {
	_, err := ty.Pack(src, 1, dst)
	return err
}

func typeUnpack(ty *Type, src, dst Block) error {
	_, err := ty.Unpack(src, 1, dst)
	return err
}

func planPack(p *Plan, src, dst Block) error {
	_, err := p.Pack(src, dst)
	return err
}

func planUnpack(p *Plan, src, dst Block) error {
	_, err := p.Unpack(src, dst)
	return err
}

func planPackRange(p *Plan, src, stream Block, lo, hi int64) error {
	return p.PackRange(src, stream, lo, hi)
}

func planChecksumRange(p *Plan, user Block, lo, hi int64) uint64 {
	var sum buf.Checksum
	p.ChecksumRange(user, lo, hi, &sum)
	return sum.Sum64()
}

func fusedCopy(srcPlan, dstPlan *Plan, src, dst Block) error {
	_, err := datatype.FusedCopy(srcPlan, dstPlan, src, dst)
	return err
}

func newChunkPipeline(p *Plan, user Block, chunk int64, depth int) (*Pipeline, error) {
	return datatype.NewChunkPipeline(p, user, 0, p.Bytes(), chunk, depth, 0)
}

func pipelineNext(cp *Pipeline) (PipeChunk, bool) { return cp.Next() }
func pipelineRecycle(cp *Pipeline, ch PipeChunk)  { cp.Recycle(ch) }
func pipelineClose(cp *Pipeline)                  { cp.Close() }

func planStatsSnapshot() PlanStats          { return datatype.PlanStatsSnapshot() }
func planStatsSub(a, b PlanStats) PlanStats { return a.Sub(b) }
