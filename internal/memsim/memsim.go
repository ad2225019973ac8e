// Package memsim models the memory side of the simulated machines: a
// cache hierarchy with warmth tracking, and cost functions for the
// gather/scatter/stream loops that dominate non-contiguous sends.
//
// The model follows the paper's own first-order analysis (§2) and its
// empirical refinements:
//
//   - A gather loop's cost is read-traffic bound: destination writes
//     interleave with source loads and are not charged (§2.2).
//   - Read traffic counts whole cache lines, so a strided layout with
//     density d moves Size/d bytes, not Size bytes. For the paper's
//     canonical every-other-element layout d = 1/2, which together with
//     the post-gather send reproduces the observed ≈3× slowdown.
//   - Hardware prefetch hides memory latency for regular access
//     patterns; irregular gaps (layout.Stats.GapJitter) degrade it
//     (§4.7, "types with less regular spacing may give worse
//     performance due to decreased use of prefetch streams").
//   - Small blocks under-use cache lines; larger block sizes perform
//     better (§4.7).
//   - Data resident in cache is read at cache bandwidth, which is why
//     not flushing between ping-pongs helps intermediate sizes (§4.6).
//
// Every engine moves the same lines — the traffic term above — and
// differs only in bookkeeping (§2.2–2.3), so GatherCost and ScatterCost
// take a Kernel spec and FusedCopyCost a worker count (its engine is
// always Compiled). With w = max(Workers, 1):
//
//	Engine        cost per segment
//	Interpreted   SegmentOverhead / w
//	Compiled      SegmentOverhead / CompiledUnrollFactor / w
//	Normalized    SegmentOverhead / (CompiledUnrollFactor·NormalizedUnrollFactor) / w
//
//	Workers       bandwidth multiplier
//	w = 1         1
//	w > 1         min(w, ParallelBWScale), the socket's saturation cap
//	              (DefaultParallelBWScale when the profile leaves it zero)
//
// Per-segment bookkeeping is embarrassingly parallel, so it divides by w
// uncapped; only the traffic term saturates.
package memsim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/buf"
	"repro/internal/layout"
)

// Hierarchy describes one machine's memory system. Bandwidths are in
// bytes/second as sustained by a single core's copy loop, which is the
// agent that builds send buffers in the paper's benchmark.
type Hierarchy struct {
	LineSize int64 // cache line, 64 on all machines in the study

	// Capacities in bytes. The model folds L1 and L2 into the warm
	// path and uses LLC as the capacity that decides residency; this
	// matches the granularity of the paper's flush experiment.
	L1, L2, LLC int64

	// CopyBW is the single-core bandwidth of a user-space copy/gather
	// loop reading from DRAM. StreamBW is the bandwidth available to
	// streaming engines (NIC injection, MPI-internal block memcpy),
	// usually a little higher than a scalar loop. CacheBW is the rate
	// for data resident in LLC.
	CopyBW   float64
	StreamBW float64
	CacheBW  float64

	// MissLatency is the exposed per-cache-miss latency when prefetch
	// fails entirely. PrefetchMinBlock is the smallest contiguous run
	// that engages a prefetch stream; PrefetchStreams is how many
	// independent streams the core sustains.
	MissLatency      float64
	PrefetchMinBlock int64
	PrefetchStreams  int

	// SegmentOverhead is the fixed loop/bookkeeping cost per
	// contiguous segment of a gather (loop control, address
	// computation). It dominates for layouts with many tiny segments.
	SegmentOverhead float64

	// ParallelBWScale caps the bandwidth gain of goroutine-parallel
	// packing on this memory system: one core's gather loop runs at
	// CopyBW, and additional workers scale the read rate only until
	// the socket's memory system saturates. The ratio is a property of
	// the socket (aggregate DRAM bandwidth over one core's copy rate),
	// so each profile calibrates it: a Skylake core nearly saturates
	// its socket alone, a KNL core is far from MCDRAM's aggregate
	// rate. Zero means DefaultParallelBWScale.
	ParallelBWScale float64

	// InternalChunk is the size of the runtime's internal pack-buffer
	// chunks: a chunked derived-type transfer packs and transmits the
	// payload through pieces of this size. It is a property of how the
	// installation's MPI stages messages through its buffer pool, so
	// each profile calibrates it (it was previously a perfmodel.Profile
	// field; the promotion mirrors ParallelBWScale's). Zero means
	// DefaultInternalChunk.
	InternalChunk int64

	// PipelineDepth is the slot-ring depth of the software-pipelined
	// chunk engine on this memory system: how many internal chunks the
	// pack worker may run ahead of injection. Depth 1 is plain double
	// buffering of the two stages; deeper rings absorb chunk-to-chunk
	// jitter (which the deterministic cost model does not price, but
	// the real executor exhibits), at the cost of depth×InternalChunk
	// of pooled staging per transfer. Zero means DefaultPipelineDepth.
	PipelineDepth int

	// NodeSize is the node boundary of the simulated machine: blocks
	// of NodeSize consecutive world ranks share one node (ranks a and
	// b are node-local iff a/NodeSize == b/NodeSize). 0 or 1 means a
	// flat machine — every pair of ranks is internode. The mpi layer
	// keys its two-level (leader tree / leader ring) collective
	// topologies and the intra-node latency discount off this field.
	NodeSize int
}

// DefaultInternalChunk is the internal pack-buffer chunk size used
// when a Hierarchy does not calibrate its own: the 512 KiB staging
// granularity of the paper-era Intel MPI installations.
const DefaultInternalChunk = 512 << 10

// DefaultPipelineDepth is the slot-ring depth used when a Hierarchy
// does not calibrate its own: double buffering, the minimum that
// overlaps the pack of chunk k+1 with the injection of chunk k.
const DefaultPipelineDepth = 2

// InternalChunkSize returns the hierarchy's internal chunk size,
// defaulted.
func (h *Hierarchy) InternalChunkSize() int64 {
	if h.InternalChunk > 0 {
		return h.InternalChunk
	}
	return DefaultInternalChunk
}

// ChunkPipelineDepth returns the hierarchy's pipeline slot-ring depth,
// defaulted.
func (h *Hierarchy) ChunkPipelineDepth() int {
	if h.PipelineDepth > 0 {
		return h.PipelineDepth
	}
	return DefaultPipelineDepth
}

// Validate checks the profile for usable values.
func (h *Hierarchy) Validate() error {
	switch {
	case h.LineSize <= 0:
		return fmt.Errorf("memsim: LineSize %d", h.LineSize)
	case h.CopyBW <= 0 || h.StreamBW <= 0 || h.CacheBW <= 0:
		return fmt.Errorf("memsim: non-positive bandwidth (copy %g stream %g cache %g)", h.CopyBW, h.StreamBW, h.CacheBW)
	case h.LLC <= 0:
		return fmt.Errorf("memsim: LLC %d", h.LLC)
	case h.InternalChunk < 0:
		return fmt.Errorf("memsim: InternalChunk %d", h.InternalChunk)
	case h.PipelineDepth < 0:
		return fmt.Errorf("memsim: PipelineDepth %d", h.PipelineDepth)
	case h.ParallelBWScale < 0:
		return fmt.Errorf("memsim: ParallelBWScale %g", h.ParallelBWScale)
	case h.NodeSize < 0:
		return fmt.Errorf("memsim: NodeSize %d", h.NodeSize)
	}
	return nil
}

// State tracks cache warmth per buffer region with an LRU over
// regions. It belongs to one rank but may be shared with that rank's
// in-flight non-blocking operations, so it is internally locked.
type State struct {
	mu       sync.Mutex
	h        *Hierarchy
	resident map[buf.Region]int64 // bytes of each region held in LLC
	order    []buf.Region         // LRU order, oldest first
	used     int64
	disabled bool // when true, Touch/Flush are no-ops and reads are DRAM-priced
}

// NewState creates cache state for hierarchy h.
func NewState(h *Hierarchy) *State {
	return &State{h: h, resident: make(map[buf.Region]int64)}
}

// Hierarchy returns the hierarchy the state models.
func (s *State) Hierarchy() *Hierarchy { return s.h }

// SetDisabled turns warmth tracking off; every read is priced at DRAM
// bandwidth. The harness uses this for the always-cold baseline.
func (s *State) SetDisabled(d bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disabled = d
}

func (s *State) touch(r buf.Region, n int64) {
	if s.disabled || n <= 0 {
		return
	}
	if n > s.h.LLC {
		n = s.h.LLC
	}
	if old, ok := s.resident[r]; ok {
		s.used -= old
		s.removeFromOrder(r)
	}
	s.resident[r] = n
	s.order = append(s.order, r)
	s.used += n
	for s.used > s.h.LLC && len(s.order) > 1 {
		oldest := s.order[0]
		if oldest == r {
			// Never evict what we just touched below its share.
			break
		}
		s.order = s.order[1:]
		s.used -= s.resident[oldest]
		delete(s.resident, oldest)
	}
	if s.used > s.h.LLC {
		// The touched region alone exceeds capacity; clamp it.
		over := s.used - s.h.LLC
		s.resident[r] -= over
		s.used = s.h.LLC
		_ = over
	}
}

func (s *State) removeFromOrder(r buf.Region) {
	for i, x := range s.order {
		if x == r {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

func (s *State) residency(r buf.Region, n int64) float64 {
	if s.disabled || n <= 0 {
		return 0
	}
	res := s.resident[r]
	if res >= n {
		return 1
	}
	return float64(res) / float64(n)
}

// Flush empties the cache, modelling the paper's 50 M-element array
// rewrite between ping-pongs (§3.2).
func (s *State) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return
	}
	s.resident = make(map[buf.Region]int64)
	s.order = s.order[:0]
	s.used = 0
}

// FlushCost returns the virtual cost of the flush itself: rewriting a
// 50 M-element (400 MB) array at streaming bandwidth. The harness
// spends this time outside the timed window, exactly like the paper.
func (s *State) FlushCost() float64 {
	const flushBytes = 50e6 * 8
	return flushBytes / s.h.StreamBW
}

// readBandwidth blends cache and DRAM bandwidth by residency and
// applies the prefetch model for the given layout statistics.
func (s *State) readBandwidth(base float64, residency float64, st layout.Stats) float64 {
	bw := base*(1-residency) + s.h.CacheBW*residency
	// Prefetch efficiency: contiguous or large-block layouts stream at
	// full bandwidth; small-block regular strides engage the stride
	// prefetcher with a modest penalty; irregular gaps defeat it in
	// proportion to the jitter.
	eff := 1.0
	if st.Segments > 1 && st.AvgBlock < float64(s.h.PrefetchMinBlock) {
		const regular = 0.97 // stride prefetcher handles small regular blocks almost perfectly
		jitterPenalty := st.GapJitter
		if jitterPenalty > 1 {
			jitterPenalty = 1
		}
		eff = regular * (1 - 0.6*jitterPenalty)
		if eff < 0.25 {
			eff = 0.25
		}
	}
	return bw * eff
}

// Traffic returns the bytes the memory system actually moves to read a
// layout once: whole cache lines, so low-density layouts are
// amplified. Gaps larger than a line skip lines; gaps within a line do
// not.
func (h *Hierarchy) Traffic(st layout.Stats) int64 {
	if st.Segments == 0 || st.Bytes == 0 {
		return 0
	}
	if st.Segments == 1 {
		return roundUp(st.Bytes, h.LineSize)
	}
	if st.AvgGap < float64(h.LineSize) {
		// Blocks and gaps interleave within lines: every line of the
		// extent is touched.
		return roundUp(st.Extent, h.LineSize)
	}
	// Distinct lines per segment; average one extra line for
	// misalignment when blocks are not line-multiples.
	perSeg := roundUp(int64(st.AvgBlock), h.LineSize)
	if int64(st.AvgBlock)%h.LineSize != 0 {
		perSeg += h.LineSize / 2
	}
	return int64(st.Segments) * perSeg
}

func roundUp(n, q int64) int64 {
	if q <= 0 {
		return n
	}
	return (n + q - 1) / q * q
}

// Engine names which loop executes a gather or scatter; the engines
// move the same lines and differ only in per-segment bookkeeping.
type Engine uint8

const (
	// Interpreted is the generic interpreting loop: MPI_Pack on a
	// derived type, the datatype send's internal gather.
	Interpreted Engine = iota
	// Compiled is a compiled pack plan (internal/datatype/plan.go), the
	// model behind the "packing(c)" scheme column.
	Compiled
	// Normalized is a compiled plan whose program the Commit-time
	// normalizer collapsed into a closed-form strided-block descriptor
	// (datatype.KernelBlock), the term behind the "normalized<=raw"
	// guideline (raw: the type's gather twin, priced Compiled) and the
	// E19 model panel.
	Normalized
)

// Kernel is the spec a gather or scatter is priced with: which engine
// runs the loop and across how many goroutines it splits. The zero
// value is the interpreting serial loop; Workers below 1 means 1.
type Kernel struct {
	Engine  Engine
	Workers int
}

// CompiledUnrollFactor is how far a compiled pack plan amortises the
// per-segment loop bookkeeping relative to a generic interpreting
// gather loop: the plan's kernels unroll fixed-stride runs and walk a
// precomputed segment table, so address generation and loop control
// overlap the copies instead of serialising with them.
const CompiledUnrollFactor = 8

// NormalizedUnrollFactor is the additional per-segment amortisation of
// a canonicalised block program over a generic compiled gather: the
// kernel enumerates whole rows from the closed-form descriptor with no
// table walk, no binary-search entry and no per-segment length fetch.
// It composes with CompiledUnrollFactor.
const NormalizedUnrollFactor = 2

// DefaultParallelBWScale is the saturation cap used when a Hierarchy
// does not calibrate its own ParallelBWScale: the paper-era socket
// shape, where roughly 3–4 cores' worth of copy bandwidth saturates a
// socket.
const DefaultParallelBWScale = 3.5

// parallelScale returns the hierarchy's saturation cap, defaulted.
func (h *Hierarchy) parallelScale() float64 {
	if h.ParallelBWScale > 0 {
		return h.ParallelBWScale
	}
	return DefaultParallelBWScale
}

// parallelSpeedup returns the effective bandwidth multiplier of a
// w-worker parallel pack on this memory system.
func (h *Hierarchy) parallelSpeedup(w int) float64 {
	if w <= 1 {
		return 1
	}
	return min(float64(w), h.parallelScale())
}

// unroll is each engine's divisor of SegmentOverhead.
var unroll = [...]float64{Interpreted: 1, Compiled: CompiledUnrollFactor, Normalized: CompiledUnrollFactor * NormalizedUnrollFactor}

// terms resolves a kernel spec on this memory system to the package
// comment's two tables: bookkeeping cost per segment and bandwidth
// multiplier. One worker divides and multiplies by exactly 1, so the
// serial prices fall out of the parallel expressions.
func (h *Hierarchy) terms(k Kernel) (segOverhead, speedup float64) {
	return h.SegmentOverhead / unroll[k.Engine] / float64(max(k.Workers, 1)), h.parallelSpeedup(k.Workers)
}

// GatherCost prices a gather loop run by kernel k: read src through the
// layout, write st.Bytes contiguously. Destination writes interleave
// with reads and are not charged (paper §2.2); the cost is read
// traffic at the blended bandwidth plus per-segment overhead.
// The call updates warmth: the source lines and the destination become
// resident.
func (s *State) GatherCost(src buf.Region, dst buf.Region, st layout.Stats, k Kernel) float64 {
	traffic := s.h.Traffic(st)
	if traffic == 0 {
		return 0
	}
	segOverhead, speedup := s.h.terms(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.residency(src, traffic)
	bw := s.readBandwidth(s.h.CopyBW, res, st) * speedup
	cost := float64(traffic)/bw + float64(st.Segments)*segOverhead
	s.touch(src, traffic)
	s.touch(dst, st.Bytes)
	return cost
}

// ScatterCost prices the inverse loop: read a contiguous source of
// st.Bytes and write it out through the layout. Reads are contiguous,
// but scattered writes still allocate the destination lines, so the
// charged traffic is the contiguous read plus the destination line
// fills beyond the payload itself.
func (s *State) ScatterCost(src buf.Region, dst buf.Region, st layout.Stats, k Kernel) float64 {
	if st.Bytes == 0 {
		return 0
	}
	segOverhead, speedup := s.h.terms(k)
	traffic := roundUp(st.Bytes, s.h.LineSize)
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.residency(src, traffic)
	bw := s.readBandwidth(s.h.CopyBW, res, layout.Stats{Segments: 1, Bytes: st.Bytes, Extent: st.Bytes}) * speedup
	cost := float64(traffic) / bw
	// Write-allocate fills for the partial destination lines.
	if extra := s.h.Traffic(st) - traffic; extra > 0 {
		cost += float64(extra) / (s.h.CopyBW * speedup)
	}
	cost += float64(st.Segments) * segOverhead
	s.touch(src, traffic)
	s.touch(dst, s.h.Traffic(st))
	return cost
}

// FusedCopyCost prices the one-pass fused scatter/gather of a
// plan-driven transfer (datatype.FusedCopy behind the sendv rendezvous
// and the typed collectives' fused legs), split across workers
// goroutines: read the source through its layout and write the
// destination through its layout in a single pass. Compared with the
// staged pipeline it replaces — a gather into a staging buffer plus a
// scatter out of it — the payload crosses the memory system once, the
// staging buffer's own traffic disappears entirely, and the two
// layers' segment walks collapse into one fused schedule whose
// bookkeeping is the larger of the two segment counts at the
// compiled engines' amortised per-segment cost.
func (s *State) FusedCopyCost(src buf.Region, dst buf.Region, srcSt, dstSt layout.Stats, workers int) float64 {
	traffic := s.h.Traffic(srcSt)
	if traffic == 0 {
		return 0
	}
	speedup := s.h.parallelSpeedup(workers)
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.residency(src, traffic)
	bw := s.readBandwidth(s.h.CopyBW, res, srcSt) * speedup
	cost := float64(traffic) / bw
	// Write-allocate fills for the partial destination lines beyond
	// the payload itself (same charge as the scatter side of the
	// staged pipeline; dense destinations add nothing).
	if extra := s.h.Traffic(dstSt) - roundUp(dstSt.Bytes, s.h.LineSize); extra > 0 {
		cost += float64(extra) / (s.h.CopyBW * speedup)
	}
	segs := max(srcSt.Segments, dstSt.Segments)
	cost += float64(segs) * s.h.SegmentOverhead / CompiledUnrollFactor / float64(max(workers, 1))
	s.touch(src, traffic)
	s.touch(dst, s.h.Traffic(dstSt))
	return cost
}

// PipelinedChunkCost composes the two stages of a chunked transfer
// under the software-pipelined chunk engine: the pack pass (total
// seconds, per-chunk bookkeeping included) and the consume pass (wire
// injection, or the unpack of a staged scatter), overlapped chunk by
// chunk through a slot ring. The classic two-stage pipeline bound
// applies: fill with the first chunk's pack, steady state at the
// slower stage, drain with the last chunk's consume —
//
//	T = pack/C + (C-1)·max(pack/C, consume/C) + consume/C
//
// for C chunks. Depth 1 (double buffering) already attains this bound
// in the deterministic model — the pack worker only ever needs one
// chunk of lookahead when both stages are jitter-free — so the ring
// depth does not appear in the formula; a depth below 1 (pipelining
// disabled) degenerates to the serial sum, exactly what the measured
// installations do (§2.3: "in practice we don't see this
// performance").
func PipelinedChunkCost(pack, consume float64, chunks int64, depth int) float64 {
	if chunks <= 1 || depth < 1 {
		return pack + consume
	}
	c := float64(chunks)
	return pack/c + (c-1)*math.Max(pack/c, consume/c) + consume/c
}

// Collective cost terms. A fan collective (gather/scatter shape) is a
// set of per-leg layout transfers serialised at the root: a fused leg
// is one FusedCopyCost, a staged leg is priced below, and the fan
// composers fold legs across the communicator. core.Price of a
// collective query composes them into the packed-then-collective vs
// typed-collective comparison.

// StagedCollectiveLegCost prices one leg of the packed-then-collective
// pipeline: a compiled pack of the layout into a contiguous staging
// slot plus the matching compiled unpack out of it — two memory passes
// per leg, the cost the typed collective removes.
func (s *State) StagedCollectiveLegCost(src, staging, dst buf.Region, srcSt, dstSt layout.Stats) float64 {
	k := Kernel{Engine: Compiled}
	return s.GatherCost(src, staging, srcSt, k) + s.ScatterCost(staging, dst, dstSt, k)
}

// LinearFanCost composes a per-leg cost across a p-rank linear
// (rank-sequential) fan: the root performs its own self leg once, then
// serialises p-1 remote legs, each occupying the larger of its memory
// pass and its wire time plus the fixed per-leg overhead.
func LinearFanCost(p int, selfLeg, remoteLeg, wire, perLegOverhead float64) float64 {
	if p <= 1 {
		return selfLeg
	}
	return selfLeg + float64(p-1)*(perLegOverhead+math.Max(remoteLeg, wire))
}

// TreeFanCost is the binomial-tree counterpart: ⌈log₂ p⌉ rounds, each
// paying a full leg (forwarding ranks re-run the memory pass, so leg
// and wire serialise) plus the per-leg overhead.
func TreeFanCost(p int, selfLeg, remoteLeg, wire, perLegOverhead float64) float64 {
	if p <= 1 {
		return selfLeg
	}
	rounds := math.Ceil(math.Log2(float64(p)))
	return selfLeg + rounds*(perLegOverhead+remoteLeg+wire)
}

// StreamCost prices a streaming contiguous read of n bytes of region r
// (NIC injection, internal block memcpy) at StreamBW blended with
// cache residency.
func (s *State) StreamCost(r buf.Region, n int64) float64 {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.residency(r, n)
	// Cache residency can only help a streaming engine: on machines
	// whose single-core cache read rate sits below the streaming rate
	// (KNL), warm data still streams at full StreamBW.
	cacheBW := s.h.CacheBW
	if cacheBW < s.h.StreamBW {
		cacheBW = s.h.StreamBW
	}
	bw := s.h.StreamBW*(1-res) + cacheBW*res
	s.touch(r, n)
	return float64(n) / bw
}

// CopyCost prices a plain contiguous copy of n bytes from region src
// to region dst by the core.
func (s *State) CopyCost(src, dst buf.Region, n int64) float64 {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.residency(src, n)
	bw := s.h.CopyBW*(1-res) + s.h.CacheBW*res
	s.touch(src, n)
	s.touch(dst, n)
	return float64(n) / bw
}
