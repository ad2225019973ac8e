package main

import (
	"fmt"
	"strings"
)

// metricDef names one metric of BENCHMARK.json. bound is the share by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`

	// Exact marks a count or a simulated quantity: a change that only
	// speeds the simulator up leaves it equal on a clean workload.
	Exact bool `json:"-"`
	// Slack is an absolute amount the metric may worsen by where that is
	// more than its bound allows. Only -compare knows it: the manifest
	// has shares only.
	Slack float64 `json:"-"`
}

// Simulated time is reported in sim_us: it is a model output that
// repeats exactly on clean workloads, not a timing of this host.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_wall_us_p50", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s_wall", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "virt_GBps", Unit: "GB/s", Better: "higher", Bound: 0.01, Exact: true},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Slack: 0.5},
	{Name: "alloc_KB_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_MB", Unit: "MB", Better: "lower", Bound: 0.20},
}

var engineSlugs = []string{"serial", "pipelined", "fused"}

// perLayer lists every per-layer metric, layer by layer. A metric that
// a workload cannot produce reads 0 there: a probe runs in one workload
// only (probesOf), the ladder on the ping-pongs, and so on.
func perLayer() []metricDef {
	var defs []metricDef
	def := func(isExact bool, unit, better string, names []string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better, Exact: isExact})
		}
	}
	// add lists measurements of this host; exact lists counts and
	// simulated quantities.
	add := func(unit, better string, names ...string) { def(false, unit, better, names) }
	exact := func(unit, better string, names ...string) { def(true, unit, better, names) }
	each := func(prefix string, slugs []string) []string {
		out := make([]string, len(slugs))
		for i, s := range slugs {
			out[i] = prefix + s
		}
		return out
	}
	var arms, papers []string
	for _, a := range ppArms {
		arms = append(arms, a.slug)
	}
	for _, s := range paperSchemes {
		papers = append(papers, s.slug)
	}

	add("GB/s", "higher", "datatype.memmove_GBps", "datatype.pack_GBps", "datatype.unpack_GBps", "datatype.fused_GBps",
		"datatype.pack_range_GBps", "datatype.pipeline_GBps", "datatype.checksum_GBps")
	add("ratio", "higher", "datatype.pack_vs_memmove")
	add("ns", "lower", "datatype.pack_1KiB_ns")
	add("us", "lower", "datatype.commit_us")
	add("ratio", "higher", "datatype.plan_hit_rate")
	exact("B", "lower", "datatype.kernel_bytes_per_op")
	exact("ratio", "lower", "datatype.cursor_bytes_frac")
	exact("ratio", "higher", "datatype.fused_bytes_frac")
	add("ratio", "higher", "datatype.parallel_ops_frac")

	add("ns", "lower", "buf.getput_512KiB_ns", "buf.getput_1KiB_ns", "buf.getput_contended_ns")
	add("GB/s", "higher", "buf.checksum_GBps")
	exact("count", "lower", "buf.gets_per_op")
	add("ratio", "higher", "buf.pool_hit_rate")
	add("B", "lower", "buf.inuse_bytes_end")

	add("ns", "lower", "simnet.deliver_match_ns", "simnet.deliver_match_256_ns", "simnet.wild_match_256_ns")
	exact("count", "lower", "simnet.msgs_per_op")
	exact("ratio", "higher", "simnet.fast_take_frac")
	exact("count", "lower", "simnet.faults_per_op", "simnet.retries_per_op")
	add("ratio", "lower", "simnet.retransmit_bytes_frac")
	exact("count", "lower", "simnet.dup_suppressed_per_op")

	add("us", "lower", "mpi.world_start_us.2", "mpi.world_start_us.256", "mpi.sendrecv_0B_us", "mpi.sendrecv_4MiB_us", "mpi.allgather_type_8_us")
	add("us", "lower", each("mpi.faulty_wall_us_p50.", engineSlugs)...)
	add("us", "lower", each("mpi.faulty_wall_us_p95.", engineSlugs)...)
	exact("sim_us", "lower", each("mpi.faulty_virt_us.", engineSlugs)...)
	exact("count", "lower", "mpi.eager_sends_per_op", "mpi.rendezvous_sends_per_op")
	add("ratio", "lower", "mpi.residual_share")

	add("us", "lower", each("core.wall_us_p50.", arms)...)
	add("us", "lower", each("core.wall_us_p99.", arms)...)
	exact("sim_us", "lower", each("core.virt_us.", arms)...)

	add("us", "lower", "harness.measure_cell_us")
	add("1/s", "higher", "harness.cells_per_s", "harness.jobmix_transfers_per_s_wall")
	add("ms", "lower", "harness.jobmix_wall_ms_p90")
	exact("GB/s", "higher", "harness.jobmix_agg_GBps_virt")
	exact("sim_us", "lower", "harness.jobmix_p99_virt_us")
	exact("count", "higher", "harness.jobmix_inflight_peak")

	add("ms", "lower", each("figures.build_ms.", figureProfiles)...)
	for _, p := range figureProfiles {
		exact("ratio", "lower", each("figures.slowdown_1GB."+p+".", papers)...)
	}
	exact("ratio", "lower", "figures.packv_vs_copying_maxdev")

	add("GB/s", "higher", "bench.calib_memmove_GBps")
	add("ns", "lower", "bench.calib_handoff_ns", "bench.timer_ns")
	add("ratio", "lower", "bench.trace_overhead_frac", "bench.failed_ops_frac")
	exact("sim_us", "lower", "bench.virt_us_per_op")
	return defs
}

func perArm(arms []armResult, f func(armResult) float64) []float64 {
	out := make([]float64, len(arms))
	for i, ar := range arms {
		out[i] = f(ar)
	}
	return out
}

func opWallP50(r *passResult) float64 {
	return geomean(perArm(r.arms, func(ar armResult) float64 { return median(ar.wallUS) }))
}

func virtUSPerOp(r *passResult) float64 {
	return geomean(perArm(r.arms, func(ar armResult) float64 { return median(ar.virtUS) }))
}

// endToEndMetrics turns an untraced pass into the end-to-end metrics.
// On multi-arm workloads a time is the geometric mean of the per-arm
// figures, so a gain in any one scheme moves it proportionally, and an
// allocation figure is the mean of the per-arm medians.
func endToEndMetrics(r *passResult, setupS float64) map[string]float64 {
	ops, window := 0, 0.0
	for _, ar := range r.arms {
		ops += ar.ops
		window += ar.window.Seconds()
	}
	return map[string]float64{
		"setup_s":         setupS,
		"op_wall_us_p50":  opWallP50(r),
		"ops_per_s_wall":  ratio(float64(ops), window),
		"cpu_us_per_op":   geomean(perArm(r.arms, func(ar armResult) float64 { return float64(ar.cpu.Nanoseconds()) / 1e3 / float64(ar.ops) })),
		"virt_GBps":       ratio(r.payload, virtUSPerOp(r)*1e3),
		"allocs_per_op":   mean(perArm(r.arms, func(ar armResult) float64 { return median(ar.allocs) })),
		"alloc_KB_per_op": mean(perArm(r.arms, func(ar armResult) float64 { return median(ar.allocKB) })),
		"peak_rss_MB":     peakRSSMB(),
	}
}

// layerCounts turns the counter deltas of a pass's timed windows into
// the count metrics. Each is the mean of the per-arm figures, so it
// does not depend on how many ops each arm fitted into its share of
// the window and repeats exactly where the program is deterministic.
func layerCounts(r *passResult) map[string]float64 {
	perOp := func(f func(armResult) int64) float64 {
		return mean(perArm(r.arms, func(ar armResult) float64 { return float64(f(ar)) / float64(ar.ops) }))
	}
	// frac averages num/den over the arms that have a den at all.
	frac := func(num, den func(armResult) int64) float64 {
		var fs []float64
		for _, ar := range r.arms {
			if d := den(ar); d != 0 {
				fs = append(fs, float64(num(ar))/float64(d))
			}
		}
		return mean(fs)
	}
	kernelBytes := func(ar armResult) int64 { return ar.plan.CompiledBytes() + ar.plan.CursorBytes + ar.plan.FusedBytes }
	takes := func(ar armResult) int64 { return ar.match.FastTakes + ar.match.WildTakes }
	// net lifts a fabric counter to its delta over an arm's window.
	net := func(f func(Counters) int64) func(armResult) int64 {
		return func(ar armResult) int64 {
			return f(ar.netAfter[0]) - f(ar.netBefore[0]) + f(ar.netAfter[1]) - f(ar.netBefore[1])
		}
	}
	return map[string]float64{
		"datatype.plan_hit_rate": frac(func(ar armResult) int64 { return ar.plan.PlanHits },
			func(ar armResult) int64 { return ar.plan.PlanHits + ar.plan.PlanMisses }),
		"datatype.kernel_bytes_per_op": perOp(kernelBytes),
		"datatype.cursor_bytes_frac":   frac(func(ar armResult) int64 { return ar.plan.CursorBytes }, kernelBytes),
		"datatype.fused_bytes_frac": frac(func(ar armResult) int64 { return ar.plan.FusedBytes },
			func(ar armResult) int64 { return ar.plan.FusedBytes + ar.plan.StagedBytes }),
		"datatype.parallel_ops_frac": frac(func(ar armResult) int64 { return ar.plan.ParallelOps },
			func(ar armResult) int64 { return ar.plan.CompiledOps() + ar.plan.FusedOps }),
		"buf.gets_per_op":       perOp(func(ar armResult) int64 { return ar.pool.Gets }),
		"buf.pool_hit_rate":     frac(func(ar armResult) int64 { return ar.pool.Hits }, func(ar armResult) int64 { return ar.pool.Gets }),
		"simnet.msgs_per_op":    perOp(takes),
		"simnet.fast_take_frac": frac(func(ar armResult) int64 { return ar.match.FastTakes }, takes),
		"simnet.faults_per_op": perOp(net(func(n Counters) int64 {
			return n.Drops + n.Corruptions + n.Truncations + n.Duplicates + n.Reorders + n.Delays
		})),
		"simnet.retries_per_op": perOp(net(func(n Counters) int64 { return n.Retries })),
		"simnet.retransmit_bytes_frac": frac(net(func(n Counters) int64 { return n.RetransmitBytes }),
			net(func(n Counters) int64 { return n.BytesDelivered })),
		"simnet.dup_suppressed_per_op": perOp(net(func(n Counters) int64 { return n.DupChunksSuppressed })),
		"mpi.eager_sends_per_op":       perOp(net(func(n Counters) int64 { return n.EagerSends })),
		"mpi.rendezvous_sends_per_op":  perOp(net(func(n Counters) int64 { return n.RendezvousSends })),
		"bench.virt_us_per_op":         virtUSPerOp(r),
		"bench.failed_ops_frac":        ratio(float64(r.failed), float64(r.attempted)),
	}
}

// ladder is the per-arm scheme ladder of a ping-pong workload on both
// clocks.
func ladder(r *passResult) map[string]float64 {
	out := map[string]float64{}
	for _, ar := range r.arms {
		out["core.wall_us_p50."+ar.name] = median(ar.wallUS)
		out["core.wall_us_p99."+ar.name] = tail(ar.wallUS, 0.99)
		out["core.virt_us."+ar.name] = median(ar.virtUS)
	}
	return out
}

// shareTable estimates where the wall time of one pp_large vector-arm
// op goes: probe time × work per op for kernel, pool and match, and
// the residual that is left for protocol bookkeeping and goroutine
// hand-off. The shares are estimates: no span is recorded inside the
// program yet.
type shareTable struct {
	OpUS, KernelUS, PoolUS, MatchUS, ResidualUS float64
}

func vectorShares(r *passResult, probes map[string]float64) shareTable {
	var st shareTable
	for _, ar := range r.arms {
		if ar.name != "vector" {
			continue
		}
		ops := float64(ar.ops)
		st.OpUS = median(ar.wallUS)
		// The bytes the arm's kernels moved per op, at the rate the
		// chunked pack probe reached on the same layout.
		kernelBytes := float64(ar.plan.CompiledBytes()+ar.plan.CursorBytes+ar.plan.FusedBytes) / ops
		st.KernelUS = kernelBytes / probes["datatype.pack_range_GBps"] / 1e3
		st.PoolUS = float64(ar.pool.Gets) / ops * probes["buf.getput_512KiB_ns"] / 1e3
		st.MatchUS = float64(ar.match.FastTakes+ar.match.WildTakes) / ops * probes["simnet.deliver_match_ns"] / 1e3
		st.ResidualUS = st.OpUS - st.KernelUS - st.PoolUS - st.MatchUS
	}
	return st
}

func (st shareTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pp_large vector arm, one op = %.1f us wall (estimated shares)\n", st.OpUS)
	for _, row := range []struct {
		name string
		us   float64
	}{{"kernel", st.KernelUS}, {"pool", st.PoolUS}, {"match", st.MatchUS}, {"residual", st.ResidualUS}} {
		fmt.Fprintf(&b, "  %-9s %9.1f us  %5.1f %%\n", row.name, row.us, 100*ratio(row.us, st.OpUS))
	}
	return b.String()
}
