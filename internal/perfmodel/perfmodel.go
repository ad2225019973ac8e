// Package perfmodel holds the machine profiles of the four
// installations the paper measures and the network-side cost model the
// simulated fabric (internal/simnet) prices operations with.
//
// A Profile is a bag of measured-scale constants: link latency and
// bandwidth, the eager limit, MPI-internal buffer behaviour, call
// overheads, one-sided penalties. The memory side lives in
// memsim.Hierarchy. None of the constants claim to be the authors'
// hardware measured to the digit — the task is to reproduce the
// *shape* of the figures: who wins, by what rough factor, and where
// the crossovers fall. Every knob is documented with the paper
// observation it encodes.
package perfmodel

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/memsim"
)

// Profile describes one hardware/MPI installation.
type Profile struct {
	Name        string
	Description string

	// Mem is the memory-side model (cache hierarchy, copy bandwidths).
	Mem memsim.Hierarchy

	// NetLatency is the one-way wire latency of a small message.
	// SendOverhead/RecvOverhead are the CPU-side per-message costs on
	// each end. A zero-byte ping-pong costs
	// 2*(SendOverhead+NetLatency+RecvOverhead), which the profiles
	// calibrate to the ≈6 µs minimum the paper reports (§3.2).
	NetLatency   float64
	SendOverhead float64
	RecvOverhead float64

	// NetBandwidth is the peak injection bandwidth in bytes/second —
	// the plateau of the figures' bandwidth panel.
	NetBandwidth float64

	// IntraNodeLatency is the one-way latency between two ranks on the
	// same node when Mem.NodeSize groups ranks into nodes (the
	// shared-memory transport's hop). 0 means NetLatency — the flat
	// model every measured paper profile uses; scale studies set it
	// (with Mem.NodeSize) to exercise the two-level collective
	// topologies.
	IntraNodeLatency float64

	// EagerLimit is the protocol switch point (§4.5): messages at or
	// under it are sent eagerly (no handshake, but an extra
	// receive-side copy out of the bounce buffer); larger messages use
	// a rendezvous handshake (two extra latencies, zero-copy).
	EagerLimit int64

	// PackedEagerFactor scales the eager limit for sends of
	// user-packed buffers. It is 1 everywhere except Cray MPICH, where
	// the paper observes the drop "at double the data sizes for the
	// packing scheme" (§4.5) — an artefact the paper itself cannot
	// explain and which we therefore encode directly.
	PackedEagerFactor float64

	// ContigOnlyEagerDrop models the Cray observation that the eager
	// drop is visible for the reference (contiguous) send but "for the
	// other schemes not much of a drop is visible" (§4.5): when true,
	// internally chunked sends hide the rendezvous handshake behind
	// the first chunk's packing.
	ContigOnlyEagerDrop bool

	// The size of MPI's internal pack buffer chunks — a derived-type
	// send packs and transmits the payload through these pieces,
	// without pipelining overlap (§2.3: "in practice we don't see this
	// performance") — lives in Mem.InternalChunk, calibrated per
	// profile like the other memory-system constants, together with
	// the software pipeline's modelled depth (Mem.PipelineDepth).
	// Read them through InternalChunk() and PipelineDepth().

	// DegradeBytes and DegradeFactor model §4.1: "a drop in
	// performance for messages beyond a few tens of megabytes. We
	// assume that for such relatively large messages the internal
	// buffer bookkeeping of MPI becomes complicated". Internal-buffer
	// sends of n > DegradeBytes run at
	// NetBandwidth / (1 + DegradeFactor*log10(n/DegradeBytes)).
	DegradeBytes  int64
	DegradeFactor float64

	// ChunkOverhead is the fixed bookkeeping cost per internal chunk.
	ChunkOverhead float64

	// CallOverhead is the cost of one MPI call that does almost no
	// work — the per-element MPI_Pack of the packing(e) scheme (§2.6).
	CallOverhead float64

	// PackCallOverhead is the fixed cost of a single MPI_Pack call on
	// a whole datatype (packing(v)).
	PackCallOverhead float64

	// FenceCost is the per-MPI_Win_fence synchronisation constant;
	// PutSetup the per-MPI_Put origin-side setup. Together they make
	// one-sided transfer slow for small messages (§4.4).
	FenceCost float64
	PutSetup  float64

	// OneSidedBWFactor derates the wire bandwidth of puts (≤1).
	// MVAPICH2's intermediate-size penalty (§4.4: "several factors
	// slower") is this factor. OneSidedDegradeFactor replaces
	// DegradeFactor for puts at large sizes; on Cray it equals the
	// two-sided value, reproducing "one-sided performance for large
	// sizes is on par with the derived types" (§4.8).
	OneSidedBWFactor      float64
	OneSidedDegradeFactor float64

	// BsendOverhead and BsendWireFactor price MPI_Bsend's
	// attached-buffer management; the wire factor > 1 makes buffered
	// sends lag even at intermediate sizes (§4.2: "in most MPI
	// implementations it performs worse").
	BsendOverhead   float64
	BsendWireFactor float64

	// NICPipelining enables the hardware capability of the paper's
	// reference [2] (user-mode memory registration on the NIC): the
	// internal pack of a derived-type send overlaps chunk-by-chunk
	// with wire injection instead of serialising before it. §2.3:
	// "with enough support of the NIC and its firmware, it would be
	// possible for this scheme to pipeline the reads and sends
	// similarly to the reference case… In practice we don't see this
	// performance" — so it is off in all measured profiles and exists
	// for the E11 what-if ablation.
	NICPipelining bool
}

// WithPipelining returns a copy of the profile with reference-[2]
// NIC pipelining enabled, for the E11 ablation.
func (p *Profile) WithPipelining() *Profile {
	q := *p
	q.Name = p.Name + "+umr"
	q.Description = p.Description + " (hypothetical UMR/NIC datatype pipelining, paper ref [2])"
	q.NICPipelining = true
	return &q
}

// Validate sanity-checks a profile.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("perfmodel: unnamed profile")
	}
	if err := p.Mem.Validate(); err != nil {
		return fmt.Errorf("profile %s: %w", p.Name, err)
	}
	switch {
	case p.NetBandwidth <= 0:
		return fmt.Errorf("profile %s: NetBandwidth %g", p.Name, p.NetBandwidth)
	case p.NetLatency < 0 || p.SendOverhead < 0 || p.RecvOverhead < 0:
		return fmt.Errorf("profile %s: negative latency/overhead", p.Name)
	case p.IntraNodeLatency < 0:
		return fmt.Errorf("profile %s: IntraNodeLatency %g", p.Name, p.IntraNodeLatency)
	case p.EagerLimit < 0:
		return fmt.Errorf("profile %s: EagerLimit %d", p.Name, p.EagerLimit)
	case p.PackedEagerFactor <= 0:
		return fmt.Errorf("profile %s: PackedEagerFactor %g", p.Name, p.PackedEagerFactor)
	case p.OneSidedBWFactor <= 0 || p.OneSidedBWFactor > 1:
		return fmt.Errorf("profile %s: OneSidedBWFactor %g", p.Name, p.OneSidedBWFactor)
	case p.BsendWireFactor < 1:
		return fmt.Errorf("profile %s: BsendWireFactor %g", p.Name, p.BsendWireFactor)
	}
	return nil
}

// WireTime is the pure bandwidth term of an n-byte transfer.
func (p *Profile) WireTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / p.NetBandwidth
}

// Eager reports whether an n-byte message goes out under the eager
// protocol. packed marks messages whose payload is a user-packed
// buffer (see PackedEagerFactor).
func (p *Profile) Eager(n int64, packed bool) bool {
	limit := p.EagerLimit
	if packed {
		limit = int64(float64(limit) * p.PackedEagerFactor)
	}
	return n <= limit
}

// InternalBW is the effective bandwidth of a send that flows through
// MPI's internal pack buffers: full bandwidth up to DegradeBytes, then
// logarithmically derated (§4.1).
func (p *Profile) InternalBW(n int64) float64 {
	return p.deratedBW(n, p.DegradeFactor)
}

// OneSidedBW is the effective put bandwidth at size n, combining the
// flat derate with the large-size degradation.
func (p *Profile) OneSidedBW(n int64) float64 {
	return p.deratedBW(n, p.OneSidedDegradeFactor) * p.OneSidedBWFactor
}

func (p *Profile) deratedBW(n int64, factor float64) float64 {
	bw := p.NetBandwidth
	if factor <= 0 || p.DegradeBytes <= 0 || n <= p.DegradeBytes {
		return bw
	}
	return bw / (1 + factor*math.Log10(float64(n)/float64(p.DegradeBytes)))
}

// InternalChunk returns the installation's internal pack-buffer chunk
// size (Mem.InternalChunk, defaulted).
func (p *Profile) InternalChunk() int64 { return p.Mem.InternalChunkSize() }

// PipelineDepth returns the depth of the software-pipelined chunk
// engine on this installation (Mem.PipelineDepth, defaulted): a
// modelled quantity, read by the cost terms only; no byte path sizes
// a buffer or starts a worker by it.
func (p *Profile) PipelineDepth() int { return p.Mem.ChunkPipelineDepth() }

// Chunks returns the internal chunk count for an n-byte payload.
func (p *Profile) Chunks(n int64) int64 {
	chunk := p.InternalChunk()
	if n <= 0 {
		return 0
	}
	return (n + chunk - 1) / chunk
}

// CollectiveTreeLimit returns the per-leg payload size up to which
// fan-in/fan-out collectives (gather/scatter shapes) prefer the
// binomial tree over the linear fan. Tree rounds forward payloads
// through intermediate ranks — every hop is another full memory pass
// and another wire crossing — so the tree only wins while the latency
// it saves dominates the copies it adds: at or below the eager limit
// (where a leg is latency-bound anyway), and below the size whose
// single-core copy time overtakes the wire latency, a bound derived
// from the installation's memory hierarchy (bytes/CopyBW ≤
// NetLatency). Above the limit the engines run the linear fan, whose
// legs each cross the memory system once.
func (p *Profile) CollectiveTreeLimit() int64 {
	limit := p.EagerLimit
	if byMem := int64(p.NetLatency * p.Mem.CopyBW); byMem > limit {
		limit = byMem
	}
	return limit
}

// TreeAggregateHop returns the largest block a binomial fan over ranks
// ranks forwards through an intermediate rank when every rank
// contributes n bytes: subtree blocks combine on the way, so inner
// hops carry multiples of the per-rank payload.
func TreeAggregateHop(ranks int, n int64) int64 {
	var max int64
	for rel := 1; rel < ranks; rel++ {
		span := int64(rel & -rel)
		if r := int64(ranks - rel); r < span {
			span = r
		}
		if span > max {
			max = span
		}
	}
	return max * n
}

// UseCollectiveTree reports whether the fan-in/fan-out engines should
// run the binomial tree for per-rank contributions of n bytes over
// ranks ranks: the per-leg size must sit in the latency-bound regime
// (CollectiveTreeLimit), and every aggregated store-and-forward hop
// must stay eager — a rendezvous handshake inside the tree costs the
// very round trip the tree exists to avoid, which is how a tree
// gather loses to the linear fan near the eager limit on
// small-eager installations (the collective ≤ p2p-decomposition
// guideline).
func (p *Profile) UseCollectiveTree(ranks int, n int64) bool {
	return n > 0 && ranks > 2 && n <= p.CollectiveTreeLimit() &&
		TreeAggregateHop(ranks, n) <= p.EagerLimit
}

// registry of the four installations, keyed by canonical name.
var registry = map[string]func() *Profile{
	"skx-impi":    SkxImpi,
	"skx-mvapich": SkxMvapich,
	"ls5-cray":    Ls5Cray,
	"knl-impi":    KnlImpi,
	"generic":     Generic,
}

// Names lists the registered profile names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ByName returns a fresh copy of the named profile.
func ByName(name string) (*Profile, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("perfmodel: unknown profile %q (have %v)", name, Names())
	}
	return f(), nil
}

// SkxImpi is Stampede2-SKX with Intel MPI over OmniPath (Figure 1):
// dual Skylake nodes, 100 Gb/s fabric, 12.5 GB/s injection plateau.
func SkxImpi() *Profile {
	return &Profile{
		Name:        "skx-impi",
		Description: "Stampede2 Skylake, OmniPath, Intel MPI (paper Figure 1)",
		Mem: memsim.Hierarchy{
			LineSize:         64,
			L1:               32 << 10,
			L2:               1 << 20,
			LLC:              33 << 20,
			CopyBW:           12.2e9,
			StreamBW:         13.5e9,
			CacheBW:          38e9,
			MissLatency:      90e-9,
			PrefetchMinBlock: 256,
			PrefetchStreams:  16,
			SegmentOverhead:  0.15e-9,
			// A Skylake core's copy loop runs close to the socket's
			// sustainable rate: ~3.5 cores saturate it.
			ParallelBWScale: 3.5,
			// Intel MPI stages derived-type sends through 512 KiB
			// internal chunks; with the core packing near the OmniPath
			// injection rate, triple buffering keeps the NIC fed when
			// pack and inject alternate which stage is slower.
			InternalChunk: 512 << 10,
			PipelineDepth: 3,
		},
		NetLatency:            2.0e-6,
		SendOverhead:          0.5e-6,
		RecvOverhead:          0.5e-6,
		NetBandwidth:          12.3e9,
		EagerLimit:            64 << 10,
		PackedEagerFactor:     1,
		DegradeBytes:          32 << 20,
		DegradeFactor:         1.8,
		ChunkOverhead:         0.7e-6,
		CallOverhead:          5e-9,
		PackCallOverhead:      0.35e-6,
		FenceCost:             6e-6,
		PutSetup:              1.2e-6,
		OneSidedBWFactor:      0.72,
		OneSidedDegradeFactor: 2.2,
		BsendOverhead:         1.2e-6,
		BsendWireFactor:       1.22,
	}
}

// SkxMvapich is Stampede2-SKX with MVAPICH2 (Figure 2): "largely the
// same results" as Intel MPI except one-sided transfer "is several
// factors slower" at intermediate sizes (§4.4).
func SkxMvapich() *Profile {
	p := SkxImpi()
	p.Name = "skx-mvapich"
	p.Description = "Stampede2 Skylake, OmniPath, MVAPICH2 (paper Figure 2)"
	p.EagerLimit = 16 << 10
	p.OneSidedBWFactor = 0.22
	p.OneSidedDegradeFactor = 2.9
	p.FenceCost = 7.5e-6
	p.DegradeFactor = 1.9
	p.BsendWireFactor = 1.3
	return p
}

// Ls5Cray is Lonestar5, a Cray XC40 with the Aries interconnect and
// Cray MPICH 7.3 (Figure 3): lower peak (≈8 GB/s plateau in the
// paper's bandwidth panel), eager drop visible mainly on the
// reference curve and at twice the size for packed sends, one-sided
// on par with derived types at large sizes (§4.8).
func Ls5Cray() *Profile {
	return &Profile{
		Name:        "ls5-cray",
		Description: "Lonestar5 Cray XC40, Aries, Cray MPICH (paper Figure 3)",
		Mem: memsim.Hierarchy{
			LineSize:         64,
			L1:               32 << 10,
			L2:               256 << 10,
			LLC:              30 << 20,
			CopyBW:           11e9,
			StreamBW:         12.5e9,
			CacheBW:          34e9,
			MissLatency:      85e-9,
			PrefetchMinBlock: 256,
			PrefetchStreams:  16,
			SegmentOverhead:  0.16e-9,
			// Aries-era Haswell sockets saturate slightly earlier than
			// Skylake under a scalar copy loop.
			ParallelBWScale: 3.2,
			// Cray MPICH's smaller 256 KiB staging chunks double the
			// chunk rate, so plain double buffering already hides the
			// faster stage behind the slower one.
			InternalChunk: 256 << 10,
			PipelineDepth: 2,
		},
		NetLatency:            1.6e-6,
		SendOverhead:          0.5e-6,
		RecvOverhead:          0.5e-6,
		NetBandwidth:          8.1e9,
		EagerLimit:            8 << 10,
		PackedEagerFactor:     2, // §4.5: drop at double the size for packing
		ContigOnlyEagerDrop:   true,
		DegradeBytes:          24 << 20,
		DegradeFactor:         1.6,
		ChunkOverhead:         0.6e-6,
		CallOverhead:          6e-9,
		PackCallOverhead:      0.3e-6,
		FenceCost:             5e-6,
		PutSetup:              1.0e-6,
		OneSidedBWFactor:      0.9,
		OneSidedDegradeFactor: 1.6, // §4.8: parity with derived types at large sizes
		BsendOverhead:         1.0e-6,
		BsendWireFactor:       1.28,
	}
}

// KnlImpi is Stampede2-KNL with Intel MPI (Figure 4): "the same peak
// network performance, but the performance of our non-contiguous tests
// is hampered by the core performance in constructing the send buffer"
// (§4.8) — a weak in-order core gives low copy bandwidth and high call
// overheads.
func KnlImpi() *Profile {
	return &Profile{
		Name:        "knl-impi",
		Description: "Stampede2 Knights Landing, OmniPath, Intel MPI (paper Figure 4)",
		Mem: memsim.Hierarchy{
			LineSize:         64,
			L1:               32 << 10,
			L2:               512 << 10,
			LLC:              16 << 30, // MCDRAM operating as cache
			CopyBW:           2.9e9,    // weak scalar core building buffers
			StreamBW:         9.5e9,
			CacheBW:          5.2e9, // single-core read of MCDRAM-resident data
			MissLatency:      150e-9,
			PrefetchMinBlock: 512,
			PrefetchStreams:  4,
			SegmentOverhead:  0.5e-9,
			// A single weak in-order KNL core is nowhere near MCDRAM's
			// aggregate bandwidth, so parallel packing keeps scaling
			// much further than on the Xeon sockets.
			ParallelBWScale: 6.5,
			// The weak core packs far below the injection rate, so the
			// pipeline is pack-bound: a deeper ring of the 512 KiB
			// chunks keeps the wire busy across the in-order core's
			// erratic chunk times.
			InternalChunk: 512 << 10,
			PipelineDepth: 4,
		},
		NetLatency:            3.0e-6,
		SendOverhead:          1.2e-6,
		RecvOverhead:          1.2e-6,
		NetBandwidth:          10.2e9,
		EagerLimit:            64 << 10,
		PackedEagerFactor:     1,
		DegradeBytes:          32 << 20,
		DegradeFactor:         1.5,
		ChunkOverhead:         2.5e-6,
		CallOverhead:          15e-9,
		PackCallOverhead:      1.1e-6,
		FenceCost:             15e-6,
		PutSetup:              3e-6,
		OneSidedBWFactor:      0.7,
		OneSidedDegradeFactor: 2.4,
		BsendOverhead:         3e-6,
		BsendWireFactor:       1.25,
	}
}

// Generic is a neutral mid-range profile for tests and examples that
// do not model a specific installation.
func Generic() *Profile {
	p := SkxImpi()
	p.Name = "generic"
	p.Description = "neutral test profile (Skylake-like)"
	return p
}
