package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	profile      = "skx-impi"
	largeBytes   = 4 << 20 // the paper's large-message regime (rendezvous)
	smallBytes   = 1 << 10 // the "schemes perform comparably" regime (eager)
	largeElems   = largeBytes / 8
	faultRate    = 0.02
	mixTransfers = 8192 // 256 ranks × 4 in flight × 8 rounds
	mixPeak      = 1024 // 256 ranks × 4 in flight
)

var figureProfiles = []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"}

// passConfig describes one pass over a workload.
type passConfig struct {
	seed   uint64
	budget time.Duration // timed window over all arms; 0 = set-up and warm-up only
	scale  float64       // shrinks warm-up counts, segments and probe reps (smoke test)
	tr     *tracer
}

// scaled shrinks a count by the pass's scale, never below 1.
func (cfg passConfig) scaled(n int) int {
	return max(1, int(math.Round(float64(n)*cfg.scale)))
}

// armResult is what one arm's timed window yielded.
type armResult struct {
	name   string
	ops    int
	wallUS []float64 // wall µs per op, one sample per batch
	virtUS []float64 // simulated µs per op, one sample per batch
	window time.Duration
	cpu    time.Duration
	// Allocations per op, one sample per segment: the metrics are
	// medians, so that a rare pool refill or retransmission buffer
	// (one 4 MiB block is 30 times a typed_faulty arm's steady state)
	// does not decide them.
	allocs, allocKB []float64
	plan            PlanStats
	pool            PoolStats
	match           MatchStats
	// Fabric counters of both ranks at the start and the end of the
	// timed window; zero where the world is not the driver's.
	netBefore, netAfter [2]Counters
}

// addSegment accounts for what ops timed ops used.
func (ar *armResult) addSegment(used resources, ops int) {
	ar.ops += ops
	ar.cpu += used.cpu
	ar.allocs = append(ar.allocs, float64(used.mallocs)/float64(ops))
	ar.allocKB = append(ar.allocKB, float64(used.allocBytes)/1024/float64(ops))
}

// passResult is one pass over a workload.
type passResult struct {
	arms      []armResult
	setup     time.Duration // everything before the timed windows
	attempted int           // ops run, warm-up included
	failed    int           // ops that failed an oracle or paper check
	payload   float64       // bytes one op moves on the simulated machine
	layer     map[string]float64
}

type workload struct {
	name, why string
	run       func(passConfig) (*passResult, error)
}

var workloads = []workload{
	{"pp_large", "4 MiB every-other-double ping-pong: datatype kernels, buf staging and the mpi rendezvous chunk loop do the work", runPPLarge},
	{"pp_small", "1 KiB eager ping-pong: simnet match, mpi envelopes, buf get/put and goroutine hand-off are the whole cost", runPPSmall},
	{"typed_faulty", "4 MiB typed-to-typed transfer under 2% faults: receive-side scatter and the checksum/NACK/selective-retransmit path", runTypedFaulty},
	{"jobmix", "8192 virtual transfers over 256 ranks in 8 communicators: sharded matching, requests and the Go scheduler, no bytes", runJobMixWorkload},
	{"figures_sweep", "regenerates paper Figures 1-4 (572 cells): harness, cost model and world start; carries the paper's claims as checks", runFiguresSweep},
}

// --- two-rank workloads ---

// pairArm is one arm of a two-rank closed-loop workload: rank 0 is the
// single client, rank 1 serves what rank 0 announces.
type pairArm struct {
	name    string
	batch   int // ops per timing sample
	segment int // samples per segment: between two readings of the process's resources
	warmup  int // warm-up samples
	setup   func(c *Comm) (*pairOps, error)
}

// pairOps is an arm's state on one rank.
type pairOps struct {
	origin   func() error // one op on rank 0
	target   func() error // the same op on rank 1
	check    func() error // oracle, on rank 1, every checkEvery segments
	teardown func() error
}

// checkEvery is the number of segments between two oracle checks.
const checkEvery = 8

// Commands rank 0 sends rank 1; a positive value is an op count.
const (
	cmdCheck = 0
	cmdStop  = -1
)

func runPair(cfg passConfig, faults *FaultPlan, payload float64, arms []pairArm) (*passResult, error) {
	res := &passResult{payload: payload}
	tr := cfg.tr
	ctl := make(chan int, 1)
	peerGone := make(chan struct{})
	var checkFailures atomic.Int64
	var peerNet Counters // rank 1's counters at its last check; ordered by the barrier after it
	start := time.Now()

	serve := func(c *Comm) error {
		defer close(peerGone)
		for _, arm := range arms {
			ops, err := arm.setup(c)
			if err != nil {
				return err
			}
			commBarrier(c)
			for stop := false; !stop; {
				cmd, ok := <-ctl
				switch {
				case !ok:
					return nil // rank 0 gave up
				case cmd > 0:
					for i := 0; i < cmd; i++ {
						flushCache(c)
						if err := ops.target(); err != nil {
							return fmt.Errorf("%s target: %w", arm.name, err)
						}
					}
				case cmd == cmdCheck:
					if err := ops.check(); err != nil {
						fmt.Fprintf(logw, "%s: oracle: %v\n", arm.name, err)
						checkFailures.Add(1)
					}
					peerNet = commCounters(c)
					commBarrier(c)
				case cmd == cmdStop:
					if err := ops.teardown(); err != nil {
						return err
					}
					commBarrier(c)
					stop = true
				}
			}
		}
		return nil
	}

	drive := func(c *Comm) error {
		defer close(ctl)
		tell := func(cmd int) error {
			select {
			case ctl <- cmd:
				return nil
			case <-peerGone:
				return fmt.Errorf("rank 1 stopped")
			}
		}
		verify := func() error {
			if err := tell(cmdCheck); err != nil {
				return err
			}
			commBarrier(c)
			return nil
		}
		res.setup += time.Since(start) // world start
		for _, arm := range arms {
			tr.begin("arm." + arm.name)
			t0 := time.Now()
			tr.begin("phase.setup")
			runtime.GC() // every arm starts from the same heap state
			ops, err := arm.setup(c)
			if err != nil {
				return err
			}
			commBarrier(c)
			tr.end()

			// runOps runs one announced sequence of samples on rank 0.
			runOps := func(samples int, record func(t time.Time, wall time.Duration, virt float64)) error {
				if err := tell(samples * arm.batch); err != nil {
					return err
				}
				for s := 0; s < samples; s++ {
					t, virt := time.Now(), 0.0
					for i := 0; i < arm.batch; i++ {
						flushCache(c)
						v := commWtime(c)
						if err := ops.origin(); err != nil {
							return fmt.Errorf("%s origin: %w", arm.name, err)
						}
						virt += commWtime(c) - v
					}
					record(t, time.Since(t), virt)
				}
				res.attempted += samples * arm.batch
				return nil
			}

			tr.begin("phase.warmup")
			if err := runOps(cfg.scaled(arm.warmup), func(time.Time, time.Duration, float64) {}); err != nil {
				return err
			}
			if err := verify(); err != nil {
				return err
			}
			tr.end()
			res.setup += time.Since(t0)

			if cfg.budget > 0 {
				ar := armResult{name: arm.name}
				opName := "op"
				if arm.batch > 1 {
					opName = "batch"
				}
				seg := cfg.scaled(arm.segment)
				ar.netBefore = [2]Counters{commCounters(c), peerNet}
				matchBase := commMatchStats(c)
				planBase, poolBase := planStatsSnapshot(), poolStatsSnapshot()
				deadline := time.Now().Add(cfg.budget / time.Duration(len(arms)))
				for first := true; first || time.Now().Before(deadline); first = false {
					tr.begin("phase.timed")
					for i := 0; i < checkEvery; i++ {
						before, segStart := readResources(), time.Now()
						err := runOps(seg, func(t time.Time, wall time.Duration, virt float64) {
							tr.leaf(opName, len(ar.wallUS), t, wall)
							ar.wallUS = append(ar.wallUS, float64(wall.Nanoseconds())/1e3/float64(arm.batch))
							ar.virtUS = append(ar.virtUS, virt*1e6/float64(arm.batch))
						})
						if err != nil {
							return err
						}
						ar.window += time.Since(segStart)
						ar.addSegment(readResources().sub(before), seg*arm.batch)
					}
					ar.plan, ar.pool = planStatsSub(planStatsSnapshot(), planBase), poolStatsSub(poolStatsSnapshot(), poolBase)
					tr.end()

					tr.begin("phase.verify")
					if err := verify(); err != nil {
						return err
					}
					// The oracle's own packing and pool traffic is not the arm's.
					planBase, poolBase = planStatsSub(planStatsSnapshot(), ar.plan), poolStatsSub(poolStatsSnapshot(), ar.pool)
					tr.end()
				}
				ar.netAfter = [2]Counters{commCounters(c), peerNet}
				ar.match = commMatchStats(c).Sub(matchBase)
				res.arms = append(res.arms, ar)
			}

			tr.begin("phase.teardown")
			if err := tell(cmdStop); err != nil {
				return err
			}
			if err := ops.teardown(); err != nil {
				return err
			}
			commBarrier(c)
			tr.end()
			tr.end() // arm
		}
		return nil
	}

	err := runWorld(2, profile, faults, func(c *Comm) error {
		if commRank(c) == 1 {
			return serve(c)
		}
		return drive(c)
	})
	res.failed = int(checkFailures.Load())
	return res, err
}

// ppPairArms builds the seven scheme arms of a ping-pong workload.
func ppPairArms(bytes int64, batch, segment int) []pairArm {
	w := forBytes(bytes)
	arms := make([]pairArm, len(ppArms))
	for i, a := range ppArms {
		arms[i] = pairArm{name: a.slug, batch: batch, segment: segment, warmup: 20,
			setup: func(c *Comm) (*pairOps, error) {
				r, err := newRunner(a.scheme)
				if err != nil {
					return nil, err
				}
				if err := runnerSetup(r, c, w, 1-commRank(c)); err != nil {
					return nil, err
				}
				return &pairOps{
					origin:   func() error { return runnerPing(r) },
					target:   func() error { return runnerPong(r) },
					check:    func() error { return runnerCheck(r) },
					teardown: func() error { return runnerTeardown(r) },
				}, nil
			}}
	}
	return arms
}

func runPPLarge(cfg passConfig) (*passResult, error) {
	return runPair(cfg, nil, largeBytes, ppPairArms(largeBytes, 1, 16))
}

// A pp_small timing sample is a batch of 256 ping-pongs: one is too
// short for the wall clock.
func runPPSmall(cfg passConfig) (*passResult, error) {
	return runPair(cfg, nil, smallBytes, ppPairArms(smallBytes, 256, 4))
}

// The two layouts of typed_faulty: every other double on the sender,
// blocks of four doubles at stride eight on the receiver — the same
// 4 MiB in the same 8 MiB extent.
func sendLayout() (*Type, error) { return vectorType(largeElems, 1, 2) }
func recvLayout() (*Type, error) { return vectorType(largeElems/4, 4, 8) }

func runTypedFaulty(cfg passConfig) (*passResult, error) {
	engines := []struct {
		name string
		send func(*Comm, Block, *Type, int, int) error
	}{
		{"serial", commSendType},
		{"pipelined", commSendpType},
		{"fused", commSendvType},
	}
	arms := make([]pairArm, len(engines))
	for i, e := range engines {
		arms[i] = pairArm{name: e.name, batch: 1, segment: 2, warmup: 10,
			setup: func(c *Comm) (*pairOps, error) { return typedOps(c, e.send, byte(cfg.seed)) }}
	}
	res, err := runPair(cfg, uniformFaults(cfg.seed, faultRate), largeBytes, arms)
	if err != nil || len(res.arms) == 0 {
		return res, err
	}
	res.layer = map[string]float64{}
	for _, ar := range res.arms {
		res.layer["mpi.faulty_wall_us_p50."+ar.name] = median(ar.wallUS)
		res.layer["mpi.faulty_wall_us_p95."+ar.name] = tail(ar.wallUS, 0.95)
		res.layer["mpi.faulty_virt_us."+ar.name] = median(ar.virtUS)
	}
	return res, nil
}

// typedOps sets one rank up for the typed→typed transfer with its
// zero-byte reply. The oracle is the receive layout filled through the
// non-fused Type.Pack and Type.Unpack, computed once per arm.
func typedOps(c *Comm, send func(*Comm, Block, *Type, int, int) error, fill byte) (*pairOps, error) {
	sendTy, err := sendLayout()
	if err != nil {
		return nil, err
	}
	recvTy, err := recvLayout()
	if err != nil {
		return nil, err
	}
	src := allocAligned(2 * largeBytes)
	fillPattern(src, fill)
	pong := alloc(0)
	ops := &pairOps{teardown: func() error { return nil }}
	if commRank(c) == 0 {
		ops.origin = func() error {
			if err := send(c, src, sendTy, 1, 0); err != nil {
				return err
			}
			return commRecv(c, pong, 1, 1)
		}
		return ops, nil
	}
	packed, want, dst := alloc(largeBytes), allocAligned(2*largeBytes), allocAligned(2*largeBytes)
	if err := typePack(sendTy, src, packed); err != nil {
		return nil, err
	}
	if err := typeUnpack(recvTy, packed, want); err != nil {
		return nil, err
	}
	ops.target = func() error {
		if err := commRecvType(c, dst, recvTy, 0, 0); err != nil {
			return err
		}
		return commSend(c, pong, 0, 1)
	}
	ops.check = func() error {
		ok := bufEqual(dst, want)
		zeroBlock(dst) // a later transfer that delivers nothing must not pass on stale bytes
		if !ok {
			return fmt.Errorf("received buffer differs from Type.Unpack(Type.Pack(src))")
		}
		return nil
	}
	return ops, nil
}

// --- single-caller workloads ---

// runSolo drives a workload whose op is one call from the driver's
// goroutine. op reports its simulated µs and whether it passed its
// checks.
func runSolo(cfg passConfig, name string, warmup int, payload float64, op func() (virtUS float64, ok bool, err error)) (*passResult, error) {
	res := &passResult{payload: payload}
	tr := cfg.tr
	run := func() (float64, error) {
		virt, ok, err := op()
		res.attempted++
		if !ok {
			res.failed++
		}
		return virt, err
	}
	tr.begin("arm." + name)
	defer tr.end()

	t0 := time.Now()
	tr.begin("phase.warmup")
	runtime.GC()
	for i := 0; i < cfg.scaled(warmup); i++ {
		if _, err := run(); err != nil {
			return res, err
		}
	}
	tr.end()
	res.setup = time.Since(t0)
	if cfg.budget == 0 {
		return res, nil
	}

	ar := armResult{name: name}
	planBase, poolBase := planStatsSnapshot(), poolStatsSnapshot()
	tr.begin("phase.timed")
	start := time.Now()
	deadline := start.Add(cfg.budget)
	for ar.ops < cfg.scaled(3) || time.Now().Before(deadline) {
		tr.beginOp("op", ar.ops)
		before, t := readResources(), time.Now()
		virt, err := run()
		if err != nil {
			return res, err
		}
		wall := time.Since(t)
		ar.addSegment(readResources().sub(before), 1)
		tr.end()
		ar.wallUS = append(ar.wallUS, float64(wall.Nanoseconds())/1e3)
		ar.virtUS = append(ar.virtUS, virt)
	}
	ar.window = time.Since(start)
	ar.plan, ar.pool = planStatsSub(planStatsSnapshot(), planBase), poolStatsSub(poolStatsSnapshot(), poolBase)
	tr.end()
	res.arms = []armResult{ar}
	return res, nil
}

func runJobMixWorkload(cfg passConfig) (*passResult, error) {
	mix, err := paperJobMix()
	if err != nil {
		return nil, err
	}
	var runs []JobMixResult // one per op, warm-up first
	res, err := runSolo(cfg, "mix", 3, mixTransfers*mixBytes, func() (float64, bool, error) {
		r, err := runJobMix(mix)
		if err != nil {
			return 0, false, err
		}
		runs = append(runs, r)
		ok := r.Transfers == mixTransfers && r.InFlightPeak == mixPeak && r.Recovery == (RecoveryStats{})
		return r.Elapsed * 1e6, ok, nil
	})
	if err != nil || len(res.arms) == 0 {
		return res, err
	}
	ar := &res.arms[0]
	var aggGBps, p99US []float64
	for _, r := range runs[len(runs)-ar.ops:] {
		// The worlds are RunJobMix's own, so matching is what its
		// result reports.
		ar.match.FastTakes += r.Matching.FastTakes
		ar.match.WildTakes += r.Matching.WildTakes
		aggGBps, p99US = append(aggGBps, r.AggregateGBs), append(p99US, r.P99*1e6)
	}
	res.layer = map[string]float64{
		"harness.jobmix_transfers_per_s_wall": mixTransfers * float64(ar.ops) / ar.window.Seconds(),
		"harness.jobmix_wall_ms_p90":          tail(ar.wallUS, 0.90) / 1e3,
		"harness.jobmix_agg_GBps_virt":        median(aggGBps),
		"harness.jobmix_p99_virt_us":          median(p99US),
		"harness.jobmix_inflight_peak":        float64(runs[len(runs)-1].InFlightPeak),
	}
	return res, nil
}

func runFiguresSweep(cfg passConfig) (*passResult, error) {
	sizes := defaultSizes(2)
	if cfg.scale < 1 {
		sizes = defaultSizes(1)
	}
	buildMS := map[string][]float64{}
	var figs []*Figure
	var cells int
	var meanBytes float64
	res, err := runSolo(cfg, "sweep", 1, 0, func() (float64, bool, error) {
		figs = figs[:0]
		for _, p := range figureProfiles {
			t := time.Now()
			cfg.tr.begin("build." + p)
			f, err := buildFigure(p, sizes)
			cfg.tr.end()
			if err != nil {
				return 0, false, err
			}
			buildMS[p] = append(buildMS[p], float64(time.Since(t).Nanoseconds())/1e6)
			figs = append(figs, f)
		}
		var times, bytes []float64
		bad := 0
		for _, f := range figs {
			fc := figureCells(f)
			for _, c := range fc {
				times, bytes = append(times, c.virtSec*1e6), append(bytes, float64(c.bytes))
				if c.real && !c.verified {
					bad++
				}
			}
			bad += paperViolations(f, sizes)
		}
		cells, meanBytes = len(times), geomean(bytes)
		return geomean(times), bad == 0, nil
	})
	if err != nil || len(res.arms) == 0 {
		return res, err
	}
	res.payload = meanBytes
	ar := res.arms[0]
	res.layer = map[string]float64{
		"harness.cells_per_s": float64(cells*ar.ops) / ar.window.Seconds(),
	}
	maxDev := 0.0
	for i, p := range figureProfiles {
		// Warm-up builds are not part of the timed sample.
		res.layer["figures.build_ms."+p] = median(buildMS[p][len(buildMS[p])-ar.ops:])
		for _, s := range paperSchemes {
			sd, err := slowdownAt(figs[i], s.scheme, 1_000_000_000)
			if err != nil {
				return res, err
			}
			res.layer["figures.slowdown_1GB."+p+"."+s.slug] = sd
		}
		for _, n := range sizes {
			maxDev = math.Max(maxDev, math.Abs(packvOverCopying(figs[i], n)-1))
		}
	}
	res.layer["figures.packv_vs_copying_maxdev"] = maxDev
	return res, nil
}

func packvOverCopying(f *Figure, n int64) float64 {
	pv, _ := slowdownAt(f, schemePackV, n)
	cp, _ := slowdownAt(f, schemeCopying, n)
	return ratio(pv, cp)
}

// paperViolations counts the paper's claims a figure breaks, at the
// tolerances internal/figures/figures_test.go pins: packing(v) tracks
// manual copying within 7 % (16 % under 100 KB) at every size (§4.3),
// and at 1 GB no other non-contiguous scheme of the paper beats it by
// more than 2 % (§5).
func paperViolations(f *Figure, sizes []int64) int {
	bad := 0
	for _, n := range sizes {
		tol := 0.07
		if n < 100_000 {
			tol = 0.16
		}
		if math.Abs(packvOverCopying(f, n)-1) > tol {
			bad++
		}
	}
	const gb = 1_000_000_000
	pv, _ := slowdownAt(f, schemePackV, gb)
	for _, rival := range paperRivals {
		if o, err := slowdownAt(f, rival, gb); err != nil || pv > o*1.02 {
			bad++
		}
	}
	return bad
}
