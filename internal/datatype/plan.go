package datatype

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/layout"
)

// This file implements the pack-plan compiler: Commit-time analysis of
// a type's flattened runs into an executable plan that chooses a
// specialized copy kernel instead of interpreting the type tree
// generically per byte. The motivation is the paper's central finding
// that pack throughput — not the network — dominates non-contiguous
// sends, and the observation (Carpen-Amarie/Hunold/Träff,
// arXiv:1607.00178) that real MPI implementations lose to hand-written
// copy loops because they walk the type representation at pack time.
//
// Execution is one strided-block form plus one gather walk. Every
// program whose runs follow a closed form — a regular run/gap instance
// (vector, hvector, subarray rows, …), a gather table the normalizer
// collapsed into 2-D/3-D blocks, a dense message — is a form (block.go)
// and runs on its executor; a bound plan folds count into the form as
// one more outer level of stride Extent(), so a message of many small
// instances still moves in whole-row batches. Irregular instances
// (indexed, struct, jittered hindexed) keep a flattened (userOff,
// packedOff, len) segment table, built once at compile time and walked
// per instance. Either program can start mid-stream — the form in
// closed form, the table by division or binary search — so messages of
// at least ParallelPackThreshold bytes split across goroutines with
// no segment alignment.

// PlanKernel labels the program a compiled plan executes, for the cost
// model and the PlanStats buckets: it selects a price and a counter,
// not code.
type PlanKernel int

// The plan kernel labels, in specialization order.
const (
	// KernelContig is a message that is one dense run.
	KernelContig PlanKernel = iota
	// KernelStride is a regular run/gap instance: a 1-d form.
	KernelStride
	// KernelGather is a flattened per-instance segment table.
	KernelGather
	// KernelBlock is a gather table the normalizer collapsed into a
	// 2-D/3-D form (normalize.go).
	KernelBlock
)

var kernelNames = map[PlanKernel]string{
	KernelContig: "contig",
	KernelStride: "stride",
	KernelGather: "gather",
	KernelBlock:  "block",
}

// String returns the kernel name.
func (k PlanKernel) String() string {
	if s, ok := kernelNames[k]; ok {
		return s
	}
	return fmt.Sprintf("PlanKernel(%d)", int(k))
}

// ParallelPackThreshold is the message size, in bytes, above which
// compiled plans split the packed range across goroutines. Below it,
// goroutine startup costs more than the copy saves.
const ParallelPackThreshold = 4 << 20

// maxPackWorkers caps the parallel fan-out: memory bandwidth saturates
// long before high core counts, so more workers only add scheduling
// noise.
const maxPackWorkers = 16

// planSeg is one flattened segment of an irregular instance: its user
// offset, its position in the packed stream, and its length. All
// instance-relative; instance i adds i*extent to off and i*size to pos.
type planSeg struct {
	off, pos, length int64
}

// planProg is the count-independent part of a compiled plan: the
// kernel label and the per-instance geometry. It is compiled once per
// type and cached on the Type, so repeated packers pay nothing.
type planProg struct {
	kernel   PlanKernel
	instSize int64 // payload bytes per instance
	ext      int64 // byte distance between instances

	// form is one instance's strided form (KernelStride, KernelBlock).
	form form

	// KernelGather table (irregular runs).
	segs []planSeg
	// uniform is the hoisted uniform segment length of a gather table
	// (0 when lengths are mixed): the entry point becomes a division
	// instead of a binary search.
	uniform int64

	// merged counts the raw table segments a block form replaced.
	merged int64
}

// compileProg flattens one instance of the type into its program and
// canonicalises it.
func compileProg(t *Type) *planProg {
	p := &planProg{instSize: t.size, ext: t.Extent()}
	switch {
	case t.r.n == 0 || t.size == 0:
		p.kernel = KernelContig
	case t.r.regular:
		p.kernel = KernelStride
		p.form = newForm(t.r.runLen, t.r.start)
		p.form.level(t.r.n, t.r.runLen+t.r.gap)
	default:
		p.kernel = KernelGather
		p.segs = make([]planSeg, len(t.r.segs))
		var pos int64
		for i, s := range t.r.segs {
			p.segs[i] = planSeg{off: s.Off, pos: pos, length: s.Len}
			pos += s.Len
		}
	}
	normalizeProg(p)
	return p
}

// maxCachedPlans bounds the per-type count→Plan map. Real programs
// reuse a handful of counts per type (1 for the ping-pong schemes, a
// few for collectives); past the bound, plans are still built but not
// retained, so a pathological count sweep cannot leak memory.
const maxCachedPlans = 128

// planCache holds a type's compiled instance program plus the bound
// plans keyed by count. It is allocated at Commit (and for predeclared
// basic types), so the Type value itself stays copyable. The count map is read-mostly: steady-state lookups take
// only the read lock and allocate nothing.
type planCache struct {
	p atomic.Pointer[planProg]

	mu      sync.RWMutex
	byCount map[int64]*Plan
}

// prog returns the cached instance program, compiling it on first use.
// Types are immutable after Commit, so a benign compile race only
// wastes one compilation.
func (t *Type) prog() *planProg {
	c := t.plans
	if c == nil {
		// Only reachable through unvalidated internal paths on an
		// uncommitted type; compile without caching.
		return compileProg(t)
	}
	if p := c.p.Load(); p != nil {
		return p
	}
	p := compileProg(t)
	planCounters.compiled.Add(1)
	c.p.Store(p)
	return p
}

// Plan is an executable pack/unpack program for (count × type), bound
// from the type's compiled program. A Plan is immutable and safe for
// concurrent use.
type Plan struct {
	t      *Type
	prog   *planProg
	count  int64
	total  int64
	kernel PlanKernel
	// form is the message's strided form, for every kernel but
	// KernelGather: the program's form with count as its outermost
	// level, or the one run of a KernelContig message.
	form form
	// stats is the message's closed-form layout statistics
	// (Type.Stats(count)), computed once with the plan: plans are
	// cached, so the transfer paths that price from a plan compute
	// nothing per call.
	stats layout.Stats
}

// CompilePlan compiles count instances of the committed type into an
// executable plan. Plans are cached on the type keyed by count, so in
// steady state this is a read-locked map lookup: no compilation, no
// allocation. Cache traffic is visible through PlanStats
// (PlanHits/PlanMisses).
func (t *Type) CompilePlan(count int) (*Plan, error) {
	if !t.committed {
		return nil, ErrNotCommitted
	}
	if count < 0 {
		return nil, fmt.Errorf("%w: negative count %d", ErrArgument, count)
	}
	return t.plan(count), nil
}

// plan returns the cached plan for count, building and caching it on
// first use. No validation: callers check committedness.
func (t *Type) plan(count int) *Plan {
	c := t.plans
	if c == nil {
		// Unvalidated internal path on an uncommitted type.
		return t.buildPlan(count)
	}
	key := int64(count)
	c.mu.RLock()
	p := c.byCount[key]
	c.mu.RUnlock()
	if p != nil {
		planCounters.planHits.Add(1)
		return p
	}
	planCounters.planMisses.Add(1)
	p = t.buildPlan(count)
	c.mu.Lock()
	if q, ok := c.byCount[key]; ok {
		// Lost a benign build race; keep the first stored plan so
		// callers settle on one identity.
		p = q
	} else if len(c.byCount) < maxCachedPlans {
		if c.byCount == nil {
			c.byCount = make(map[int64]*Plan, 4)
		}
		c.byCount[key] = p
	}
	c.mu.Unlock()
	return p
}

// buildPlan binds the cached program to a count without caching.
func (t *Type) buildPlan(count int) *Plan {
	prog := t.prog()
	p := &Plan{
		t:      t,
		prog:   prog,
		count:  int64(count),
		total:  int64(count) * t.size,
		kernel: prog.kernel,
		stats:  t.Stats(count),
	}
	if p.total == 0 {
		p.kernel = KernelContig
		return p
	}
	switch {
	case t.IsContiguous():
		// Dense repetition: count instances form one run.
		p.kernel = KernelContig
		p.form = newForm(p.total, t.r.first())
	case prog.kernel != KernelGather:
		// The program's form with count as its outermost level.
		p.form = prog.form
		p.form.level(p.count, prog.ext)
		if p.form.dims == 0 {
			// A single single-run instance is contiguous regardless of
			// extent (resized types, subarray single rows, …).
			p.kernel = KernelContig
		}
	}
	return p
}

// Kernel returns the selected kernel.
func (p *Plan) Kernel() PlanKernel { return p.kernel }

// ContigWindow returns the user-buffer offset of the single dense run
// when the whole message is contiguous (kernel KernelContig), so
// protocol layers can route dense typed legs over the raw contiguous
// paths. ok is false for strided and irregular plans.
func (p *Plan) ContigWindow() (off int64, ok bool) {
	if p.kernel != KernelContig {
		return 0, false
	}
	return p.form.start, true
}

// Bytes returns the packed size of the full message.
func (p *Plan) Bytes() int64 { return p.total }

// Stats returns the message's layout statistics, Type.Stats(count) as
// computed when the plan was built.
func (p *Plan) Stats() layout.Stats { return p.stats }

// parallelWorkersFor sizes the pack engine's real goroutine split of an
// n-byte message: 1 below ParallelPackThreshold, else GOMAXPROCS capped
// by maxPackWorkers. No simulated cost reads it (see mpi.KernelFor).
func parallelWorkersFor(n int64) int {
	if n < ParallelPackThreshold {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), maxPackWorkers)
}

// PlanStats is a snapshot of the package-wide plan-engine counters:
// how many programs were compiled, how the per-(type,count) plan cache
// performed (PlanHits/PlanMisses), how many pack/unpack executions and
// bytes each kernel handled — whole-message and chunked
// (ChunkOps/ChunkBytes) — and how many of those ran parallel. The
// harness reports per-measurement deltas of these so the figures can
// show kernel bandwidth and cache hit rates. A chunked
// range with a virtual participant moves no bytes and may be
// attributed in closed form (Plan.RecordChunks): chunk for chunk what
// the chunk loop would attribute.
type PlanStats struct {
	Compiled int64

	// PlanHits and PlanMisses count lookups of the per-type plan
	// cache: a hit returns a previously bound plan with no compilation
	// and no allocation.
	PlanHits, PlanMisses int64

	ContigOps, ContigBytes int64
	StrideOps, StrideBytes int64
	GatherOps, GatherBytes int64
	// BlockOps and BlockBytes count executions of canonical
	// strided-block programs — gather tables the normalizer collapsed
	// into closed 2-D/3-D forms.
	BlockOps, BlockBytes       int64
	ParallelOps, ParallelBytes int64

	// CanonHits and CanonMisses count Commit-time normalization
	// outcomes over gather programs (contig/stride programs are
	// already canonical and count as neither); RunsMerged counts the
	// raw table segments folded away into canonical descriptors.
	CanonHits, CanonMisses int64
	RunsMerged             int64
	// ChunkOps and ChunkBytes count compiled-kernel executions of
	// partial packed ranges (the chunked/pipelined streaming tier);
	// their bytes are also attributed to the owning kernel above.
	ChunkOps, ChunkBytes int64
	// CursorOps and CursorBytes always read 0: every transfer runs a
	// compiled plan. They remain for the readers that still print them.
	CursorOps, CursorBytes int64

	// PipelinedOps and PipelinedBytes count the chunks of the paths
	// whose pack/transfer overlap is modelled (RecordPipelined): the
	// software-pipelined rendezvous, the chunked staged scatter and the
	// pipelined collectives. Their chunks are also counted in
	// ChunkOps/ChunkBytes and their owning kernel, like any
	// partial-range execution.
	PipelinedOps, PipelinedBytes int64

	// FusedOps and FusedBytes count one-pass fused scatter/gather
	// transfers (FusedCopy: user layout → user layout, no staging);
	// StagedOps and StagedBytes count rendezvous typed transfers that
	// went through the two-pass pack→staging→unpack pipeline instead
	// (recorded by the mpi layer via RecordStagedTransfer). Together
	// they attribute every typed rendezvous payload to the engine that
	// moved it.
	FusedOps, FusedBytes   int64
	StagedOps, StagedBytes int64

	// ChecksumBytes counts the bytes of ChecksumRange passes over real
	// buffers: reads of a layout that move nothing. Sums folded by a
	// move (PackRangeSum, PackChunks, FusedCopySum, the pipeline) do
	// not count.
	ChecksumBytes int64
}

// CompiledOps returns the total compiled-kernel executions.
func (s PlanStats) CompiledOps() int64 {
	return s.ContigOps + s.StrideOps + s.GatherOps + s.BlockOps
}

// CompiledBytes returns the bytes moved by compiled kernels.
func (s PlanStats) CompiledBytes() int64 {
	return s.ContigBytes + s.StrideBytes + s.GatherBytes + s.BlockBytes
}

// Sub returns the counter-wise difference s - o, for windowed deltas.
func (s PlanStats) Sub(o PlanStats) PlanStats {
	return PlanStats{
		Compiled:       s.Compiled - o.Compiled,
		PlanHits:       s.PlanHits - o.PlanHits,
		PlanMisses:     s.PlanMisses - o.PlanMisses,
		ContigOps:      s.ContigOps - o.ContigOps,
		ContigBytes:    s.ContigBytes - o.ContigBytes,
		StrideOps:      s.StrideOps - o.StrideOps,
		StrideBytes:    s.StrideBytes - o.StrideBytes,
		GatherOps:      s.GatherOps - o.GatherOps,
		GatherBytes:    s.GatherBytes - o.GatherBytes,
		BlockOps:       s.BlockOps - o.BlockOps,
		BlockBytes:     s.BlockBytes - o.BlockBytes,
		CanonHits:      s.CanonHits - o.CanonHits,
		CanonMisses:    s.CanonMisses - o.CanonMisses,
		RunsMerged:     s.RunsMerged - o.RunsMerged,
		ParallelOps:    s.ParallelOps - o.ParallelOps,
		ParallelBytes:  s.ParallelBytes - o.ParallelBytes,
		ChunkOps:       s.ChunkOps - o.ChunkOps,
		ChunkBytes:     s.ChunkBytes - o.ChunkBytes,
		CursorOps:      s.CursorOps - o.CursorOps,
		CursorBytes:    s.CursorBytes - o.CursorBytes,
		PipelinedOps:   s.PipelinedOps - o.PipelinedOps,
		PipelinedBytes: s.PipelinedBytes - o.PipelinedBytes,
		FusedOps:       s.FusedOps - o.FusedOps,
		FusedBytes:     s.FusedBytes - o.FusedBytes,
		StagedOps:      s.StagedOps - o.StagedOps,
		StagedBytes:    s.StagedBytes - o.StagedBytes,
		ChecksumBytes:  s.ChecksumBytes - o.ChecksumBytes,
	}
}

// String renders the snapshot compactly for logs and study output.
func (s PlanStats) String() string {
	return fmt.Sprintf("plan{compiled=%d cache=%d/%d contig=%d/%dB stride=%d/%dB gather=%d/%dB block=%d/%dB canon=%d/%d merged=%d parallel=%d/%dB chunk=%d/%dB pipelined=%d/%dB cursor=%d/%dB fused=%d/%dB staged=%d/%dB}",
		s.Compiled, s.PlanHits, s.PlanMisses, s.ContigOps, s.ContigBytes, s.StrideOps, s.StrideBytes,
		s.GatherOps, s.GatherBytes, s.BlockOps, s.BlockBytes, s.CanonHits, s.CanonMisses, s.RunsMerged,
		s.ParallelOps, s.ParallelBytes, s.ChunkOps, s.ChunkBytes,
		s.PipelinedOps, s.PipelinedBytes, s.CursorOps, s.CursorBytes, s.FusedOps, s.FusedBytes,
		s.StagedOps, s.StagedBytes)
}

// planCounters holds the live counters behind PlanStatsSnapshot.
var planCounters struct {
	compiled             atomic.Int64
	planHits, planMisses atomic.Int64

	contigOps, contigBytes       atomic.Int64
	strideOps, strideBytes       atomic.Int64
	gatherOps, gatherBytes       atomic.Int64
	blockOps, blockBytes         atomic.Int64
	canonHits, canonMisses       atomic.Int64
	runsMerged                   atomic.Int64
	parallelOps, parallelBytes   atomic.Int64
	chunkOps, chunkBytes         atomic.Int64
	pipelinedOps, pipelinedBytes atomic.Int64
	fusedOps, fusedBytes         atomic.Int64
	stagedOps, stagedBytes       atomic.Int64
	checksumBytes                atomic.Int64
}

// PlanStatsSnapshot returns the current plan-engine counters.
func PlanStatsSnapshot() PlanStats {
	return PlanStats{
		Compiled:       planCounters.compiled.Load(),
		PlanHits:       planCounters.planHits.Load(),
		PlanMisses:     planCounters.planMisses.Load(),
		ContigOps:      planCounters.contigOps.Load(),
		ContigBytes:    planCounters.contigBytes.Load(),
		StrideOps:      planCounters.strideOps.Load(),
		StrideBytes:    planCounters.strideBytes.Load(),
		GatherOps:      planCounters.gatherOps.Load(),
		GatherBytes:    planCounters.gatherBytes.Load(),
		BlockOps:       planCounters.blockOps.Load(),
		BlockBytes:     planCounters.blockBytes.Load(),
		CanonHits:      planCounters.canonHits.Load(),
		CanonMisses:    planCounters.canonMisses.Load(),
		RunsMerged:     planCounters.runsMerged.Load(),
		ParallelOps:    planCounters.parallelOps.Load(),
		ParallelBytes:  planCounters.parallelBytes.Load(),
		ChunkOps:       planCounters.chunkOps.Load(),
		ChunkBytes:     planCounters.chunkBytes.Load(),
		PipelinedOps:   planCounters.pipelinedOps.Load(),
		PipelinedBytes: planCounters.pipelinedBytes.Load(),
		FusedOps:       planCounters.fusedOps.Load(),
		FusedBytes:     planCounters.fusedBytes.Load(),
		StagedOps:      planCounters.stagedOps.Load(),
		StagedBytes:    planCounters.stagedBytes.Load(),
		ChecksumBytes:  planCounters.checksumBytes.Load(),
	}
}

// recordPlanExec attributes ops executions moving n bytes in total to
// their kernel, and to the parallel counters when they were split.
func recordPlanExec(k PlanKernel, ops, n int64, parallel bool) {
	switch k {
	case KernelContig:
		planCounters.contigOps.Add(ops)
		planCounters.contigBytes.Add(n)
	case KernelStride:
		planCounters.strideOps.Add(ops)
		planCounters.strideBytes.Add(n)
	case KernelGather:
		planCounters.gatherOps.Add(ops)
		planCounters.gatherBytes.Add(n)
	case KernelBlock:
		planCounters.blockOps.Add(ops)
		planCounters.blockBytes.Add(n)
	}
	if parallel {
		planCounters.parallelOps.Add(ops)
		planCounters.parallelBytes.Add(n)
	}
}

// recordPlanChunk attributes ops compiled partial-range executions
// moving n bytes in total to their kernel and the chunk counters.
func recordPlanChunk(k PlanKernel, ops, n int64, parallel bool) {
	recordPlanExec(k, ops, n, parallel)
	planCounters.chunkOps.Add(ops)
	planCounters.chunkBytes.Add(n)
}

// RecordPipelined attributes ops chunks of n bytes in total to the
// pipelined tier, whose overlap is modelled on the virtual clock: the
// pipelined rendezvous send, the staged scatter of a chunked sendv
// fallback, the chunk-streamed collective hops and ChunkPipeline's
// chunks. Their bytes move as any chunk's do.
func RecordPipelined(ops, n int64) {
	planCounters.pipelinedOps.Add(ops)
	planCounters.pipelinedBytes.Add(n)
}

// RecordChunks attributes the packed range [lo, hi), cut into
// chunk-sized pieces, exactly as that many partial-range executions
// over a virtual participant would, without running them. A chunk loop
// whose user buffer or destination is virtual moves no bytes and folds
// no checksum, so this one step is all it does.
func (p *Plan) RecordChunks(lo, hi, chunk int64) {
	recordPlanChunk(p.kernel, (hi-lo+chunk-1)/chunk, hi-lo, false)
}

// recordFused attributes one fused one-pass transfer; parallel
// executions also count toward the parallel attribution, like plan
// executions do.
func recordFused(n int64, parallel bool) {
	planCounters.fusedOps.Add(1)
	planCounters.fusedBytes.Add(n)
	if parallel {
		planCounters.parallelOps.Add(1)
		planCounters.parallelBytes.Add(n)
	}
}

// RecordFusedTransfer attributes one rendezvous typed transfer that
// moved in a single pass without a staging buffer but outside
// FusedCopy (the plan packing straight into a remote contiguous
// destination), so PlanStats sees every zero-staging transfer as
// fused.
func RecordFusedTransfer(n int64) { recordFused(n, false) }

// RecordStagedTransfer attributes one rendezvous typed transfer that
// moved through the two-pass pack→staging→unpack pipeline. The mpi
// protocol layer calls it wherever a typed rendezvous payload could
// not be fused, so PlanStats carries fused-vs-staged attribution.
func RecordStagedTransfer(n int64) {
	planCounters.stagedOps.Add(1)
	planCounters.stagedBytes.Add(n)
}
