// Package repro reproduces "Performance of MPI Sends of Non-Contiguous
// Data" (Victor Eijkhout; arXiv:1809.10778) as a self-contained Go
// library: a from-scratch MPI-like runtime over a simulated cluster
// fabric, a derived-datatype engine, the paper's eight send schemes,
// and the measurement harness and experiments that regenerate every
// figure of the evaluation.
//
// This root package is the public facade: it re-exports the stable
// surface of the internal packages so applications program against one
// import. The examples/ directory shows the API on the three workloads
// the paper's introduction motivates — multigrid coarsening transfers,
// FEM boundary exchanges, and sending the real parts of a complex
// array — plus a quickstart and an auto-tuning demo.
//
// # Pack-plan compiler
//
// The datatype engine packs through a plan compiler
// (internal/datatype/plan.go): committing a type and binding it to a
// count compiles an executable plan that selects a specialized kernel
// — a single copy for contiguous layouts, a closed-form fixed-stride
// loop for regular run/gap patterns (the paper's vector types), or a
// flattened segment-table gather for irregular types — and splits the
// packed range across goroutines for messages of at least 4 MiB, the
// engine's fixed parallel-pack threshold. Chunked mid-stream packing
// (the runtime's rendezvous chunk loops) resumes the same compiled kernels
// at stream offsets; the interpreting cursor is the byte-for-byte
// oracle they are property-tested against. The ninth scheme,
// PackCompiled ("packing(c)"), measures this engine against the
// paper's interpreted packing(v); the tenth, Sendv ("sendv"), is the
// fused zero-copy rendezvous, where the compiled plan scatters the
// sender's layout straight into the receiver's buffer in one pass — no
// staging buffer, no MPI-internal chunking; the eleventh,
// TypedPipelined ("pipelined"), overlaps the pack of one internal
// chunk with the injection of the previous one through a slot ring.
// Measurement.PlanStats reports which kernels moved each cell's bytes,
// including fused-vs-staged attribution.
//
// Quick start:
//
//	prof, _ := repro.ProfileByName("skx-impi")
//	m, err := repro.Measure(prof, repro.PackVector, repro.WorkloadForBytes(1<<20), repro.DefaultOptions())
//	fmt.Println(m.Time(), m.Bandwidth())
package repro

import (
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/figures"
	"repro/internal/guidelines"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// Scheme identifies one of the paper's eight send schemes or the
// three engines added beyond them.
type Scheme = core.Scheme

// The schemes, in the order of the paper's figure legends, plus the
// compiled-pack, fused-rendezvous and pipelined-typed schemes.
const (
	Reference      = core.Reference
	Copying        = core.Copying
	Buffered       = core.Buffered
	VectorType     = core.VectorType
	Subarray       = core.Subarray
	OneSided       = core.OneSided
	PackElement    = core.PackElement
	PackVector     = core.PackVector
	PackCompiled   = core.PackCompiled
	Sendv          = core.Sendv
	TypedPipelined = core.TypedPipelined
)

// Schemes lists all schemes in legend order.
func Schemes() []Scheme { return core.Schemes() }

// Workload describes a strided payload; WorkloadForBytes builds the
// paper's canonical every-other-element case.
type Workload = core.Workload

// WorkloadForBytes builds the canonical workload for an n-byte
// payload.
func WorkloadForBytes(n int64) Workload { return core.ForBytes(n) }

// Profile is a simulated installation (hardware + MPI implementation).
type Profile = perfmodel.Profile

// ProfileByName returns a fresh copy of a named installation profile:
// skx-impi, skx-mvapich, ls5-cray, knl-impi, or generic.
func ProfileByName(name string) (*Profile, error) { return perfmodel.ByName(name) }

// ProfileNames lists the registered installations.
func ProfileNames() []string { return perfmodel.Names() }

// Options configures the measurement harness; DefaultOptions is the
// paper's protocol (20 ping-pongs, cache flushing, 1-σ dismissal).
type Options = harness.Options

// DefaultOptions returns the paper's measurement protocol.
func DefaultOptions() Options { return harness.DefaultOptions() }

// Measurement is one (scheme, size) result.
type Measurement = harness.Measurement

// Measure runs one scheme at one workload on a fresh simulated pair.
func Measure(p *Profile, s Scheme, w Workload, opt Options) (Measurement, error) {
	return harness.Measure(p, s, w, opt)
}

// MeasureSweep measures one scheme across several workloads.
func MeasureSweep(p *Profile, s Scheme, ws []Workload, opt Options) ([]Measurement, error) {
	return harness.MeasureSweep(p, s, ws, opt)
}

// JobMix drives many independent ring communicators over one fabric
// at once, every rank holding several typed transfers in flight — the
// scale-out regime of the sharded matcher. JobMixResult reports the
// sustained aggregate throughput, completion quantiles, the
// concurrent-transfer high-water mark, and the fabric's
// shard-contention attribution.
type (
	JobMix       = harness.JobMix
	JobMixResult = harness.JobMixResult

	// RecoveryStats is a faulted mix's repair attribution, summed
	// across ranks: injected damage, retries, integrity rejections and
	// the selective-retransmission split.
	RecoveryStats = harness.RecoveryStats
)

// RunJobMix executes a concurrent job mix and reports its sustained
// throughput.
func RunJobMix(m JobMix) (JobMixResult, error) { return harness.RunJobMix(m) }

// MatchStats is the fabric's envelope-matching attribution: live
// shard queues and the fast-path vs wildcard split.
type MatchStats = simnet.MatchStats

// Figure is one installation's full three-panel sweep (paper Figures
// 1–4).
type Figure = figures.Figure

// BuildFigure measures all eight schemes for one installation.
func BuildFigure(profileName string, sizes []int64, opt Options) (*Figure, error) {
	return figures.Build(profileName, sizes, opt)
}

// FigureSizes returns the paper's 10³…10⁹-byte x axis with the given
// resolution.
func FigureSizes(perDecade int) []int64 { return figures.DefaultSizes(perDecade) }

// Goal selects what Recommend optimises for.
type Goal = core.Goal

// Recommendation goals.
const (
	GoalBalanced = core.GoalBalanced
	GoalFastest  = core.GoalFastest
)

// Recommendation is scheme advice with its reasoning.
type Recommendation = core.Recommendation

// Query is one question to the cost model: Bytes of the canonical
// layout (or Count instances of a committed Type) on one installation,
// point-to-point or as a Ranks-rank fan collective, optionally on a
// lossy fabric (Faults) or with observed fits (Observed). Zero fields
// mean the canonical layout, count 1, point-to-point, a clean fabric
// and no calibration.
type Query = core.Query

// Cost is the cost model's answer to a Query: modelled times per scheme
// (Clean, Faulty under the query's faults, WholeReplay), indexed by
// Scheme, plus the shape they were priced with.
type Cost = core.Cost

// Price evaluates the cost model for one query.
func Price(q Query) (Cost, error) { return core.Price(q) }

// Recommend operationalises the paper's conclusion for one query:
// derived datatypes up to large sizes, the compiled pack beyond them
// (GoalBalanced), or the cheapest priced scheme (GoalFastest). With
// observed fits it is a strict argmin over them, so the recommended
// scheme is never priced above an alternative.
func Recommend(q Query, goal Goal) (Recommendation, error) { return core.Recommend(q, goal) }

// ObservedHierarchy accumulates measured (bytes, seconds) samples per
// transfer path and fits latency+bandwidth lines to them — the sink
// of the self-tuning loop. Record a measured virtual-clock cost with
// Observe; set it as Query.Observed to prefer observed behaviour over
// calibration.
type ObservedHierarchy = memsim.ObservedHierarchy

// NewObservedHierarchy creates an empty observed model.
func NewObservedHierarchy() *ObservedHierarchy { return memsim.NewObservedHierarchy() }

// Transfer-path names of observed samples, consumed by Price and
// Recommend through Query.Observed.
const (
	PathTypedSend  = memsim.PathTypedSend
	PathPackedSend = memsim.PathPackedSend
)

// GuidelinesConfig parameterises a performance-guidelines sweep;
// GuidelinesReport is its outcome (see internal/guidelines for the
// rule table).
type (
	GuidelinesConfig = guidelines.Config
	GuidelinesReport = guidelines.Report
)

// GuidelinesSweep executes the Hunold/Träff-style performance
// guidelines as measured properties over the virtual clock: each rule
// bounds one engine by an alternative moving the same bytes, and
// violated cells come back as structured records with PlanStats
// attribution. A zero Config sweeps the default acceptance grid.
func GuidelinesSweep(cfg GuidelinesConfig) (*GuidelinesReport, error) {
	return guidelines.Sweep(cfg)
}

// Comm is one rank's communicator handle in the MPI-like runtime; Run
// starts a world of rank goroutines. See internal/mpi for the full
// point-to-point, one-sided and collective surface.
type Comm = mpi.Comm

// RunOptions configures the runtime directly (profile, real-time
// mode, watchdog).
type RunOptions = mpi.Options

// Run starts size rank goroutines on a simulated fabric.
func Run(size int, opts RunOptions, body func(*Comm) error) error {
	return mpi.Run(size, opts, body)
}

// Fault injection and recovery. A FaultPlan armed through
// RunOptions.Faults makes the fabric drop, corrupt, truncate,
// duplicate, reorder and delay deliveries deterministically from its
// seed; the runtime's checksum/ACK/retry machinery recovers, and when
// the RetryPolicy budget runs out the typed errors below surface the
// failure instead of hanging.
type (
	// FaultPlan is a deterministic, seedable fault-injection plan.
	FaultPlan = simnet.FaultPlan
	// ScriptedFault pins one exact fault to one exact delivery.
	ScriptedFault = simnet.ScriptedFault
	// RetryPolicy bounds the recovery machinery (RunOptions.Retry).
	RetryPolicy = mpi.RetryPolicy

	// DeliveryError reports a retry budget exhausted; IntegrityError a
	// checksum mismatch the budget could not clear; DeadlockError a
	// quiescent world with the structured stuck-endpoint report;
	// CollectiveError wraps a failed collective leg.
	DeliveryError   = mpi.DeliveryError
	IntegrityError  = mpi.IntegrityError
	DeadlockError   = mpi.DeadlockError
	CollectiveError = mpi.CollectiveError

	// RequestStateError reports request misuse (a Wait after
	// completion) with the operation, rank, request state and — after
	// an abort — the underlying fault that finished the request.
	RequestStateError = mpi.RequestStateError

	// FaultProfile prices the recovery machinery for the cost model
	// (expected retries, backoff, delivery probability).
	FaultProfile = memsim.FaultProfile
)

// Sentinel errors matchable with errors.Is against the typed errors
// above.
var (
	ErrIntegrity        = mpi.ErrIntegrity
	ErrRetriesExhausted = mpi.ErrRetriesExhausted
	ErrDeadlock         = mpi.ErrDeadlock
	ErrRequestInactive  = mpi.ErrRequestInactive
)

// UniformFaults builds a plan injecting every fault kind uniformly at
// the given total rate on every link; DropOnly injects only drops.
// Identical seeds reproduce identical fault sequences.
func UniformFaults(seed uint64, rate float64) *FaultPlan { return simnet.UniformFaults(seed, rate) }

// DropOnly builds a drop-only fault plan.
func DropOnly(seed uint64, rate float64) *FaultPlan { return simnet.DropOnly(seed, rate) }

// DefaultRetryPolicy is the recovery budget used when RunOptions.Retry
// is zero: 8 retries, 20 µs base backoff doubling to a 2 ms cap.
func DefaultRetryPolicy() RetryPolicy { return mpi.DefaultRetryPolicy() }

// Cart is a Cartesian process topology over a communicator, with
// Rank/Shift in the style of MPI_Cart_*; ProcNull marks an off-grid
// neighbour. DimsCreate factors a size into balanced grid dimensions
// like MPI_Dims_create.
type Cart = mpi.Cart

// ProcNull is the off-grid neighbour marker of Cart.Shift.
const ProcNull = mpi.ProcNull

// DimsCreate factors size into ndims balanced dimensions.
func DimsCreate(size, ndims int) ([]int, error) { return mpi.DimsCreate(size, ndims) }

// Datatype is an MPI-style derived datatype; the constructors below
// mirror the MPI type-constructor surface.
type Datatype = datatype.Type

// Basic datatypes.
var (
	TypeByte       = datatype.Byte
	TypeInt32      = datatype.Int32
	TypeInt64      = datatype.Int64
	TypeFloat32    = datatype.Float32
	TypeFloat64    = datatype.Float64
	TypeComplex128 = datatype.Complex128
)

// TypeVector mirrors MPI_Type_vector over a base type.
func TypeVector(count, blocklen, stride int, base *Datatype) (*Datatype, error) {
	return datatype.Vector(count, blocklen, stride, base)
}

// TypeHvector mirrors MPI_Type_create_hvector: a vector whose stride
// is given in bytes, the constructor that nests derived types at
// arbitrary byte pitches (and the outer layer of the
// hvector-of-vector motif the Commit-time normalizer collapses — see
// the canonical-forms walkthrough in examples/).
func TypeHvector(count, blocklen int, strideBytes int64, base *Datatype) (*Datatype, error) {
	return datatype.Hvector(count, blocklen, strideBytes, base)
}

// TypeContiguous mirrors MPI_Type_contiguous.
func TypeContiguous(count int, base *Datatype) (*Datatype, error) {
	return datatype.Contiguous(count, base)
}

// TypeIndexed mirrors MPI_Type_indexed.
func TypeIndexed(blocklens, displs []int, base *Datatype) (*Datatype, error) {
	return datatype.Indexed(blocklens, displs, base)
}

// TypeSubarray mirrors MPI_Type_create_subarray (C order).
func TypeSubarray(sizes, subsizes, starts []int, base *Datatype) (*Datatype, error) {
	return datatype.Subarray(sizes, subsizes, starts, datatype.OrderC, base)
}

// TypeResized mirrors MPI_Type_create_resized: it overrides a type's
// lower bound and extent without moving data. Extent-resized types are
// how typed collectives place slots at arbitrary pitches (halo
// columns, interleaved slabs — see the typed-collectives walkthrough
// in examples/).
func TypeResized(base *Datatype, lb, extent int64) (*Datatype, error) {
	return datatype.Resized(base, lb, extent)
}

// PackPlan is an executable pack/unpack program compiled from a
// committed datatype and a count; CompilePlan builds one explicitly
// (the engine also compiles plans transparently inside Pack/Unpack and
// the send paths).
type PackPlan = datatype.Plan

// CompilePlan compiles count instances of a committed datatype into an
// executable plan.
func CompilePlan(ty *Datatype, count int) (*PackPlan, error) { return ty.CompilePlan(count) }

// PlanStats is a snapshot of the pack-plan engine counters: compiled
// kernel executions and bytes per kernel, chunked and parallel
// executions, and fused-vs-staged transfers.
type PlanStats = datatype.PlanStats

// PlanStatsSnapshot returns the current pack-plan engine counters.
func PlanStatsSnapshot() PlanStats { return datatype.PlanStatsSnapshot() }
