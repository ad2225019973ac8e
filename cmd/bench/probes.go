package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// A probe calls one layer's public function directly, on the shape the
// workloads use, and reports the median over its samples. Probes are
// how layers are measured from outside while the program itself
// records no spans.

const (
	chunkBytes   = 512 << 10 // the rendezvous engines' internal chunk
	probeReps    = 200       // samples per probe at scale 1
	allgatherN   = 8
	allgatherLen = 512 << 10
)

type prober struct {
	cfg passConfig
	out map[string]float64
}

// timeCalls samples fn: each sample is batch back-to-back calls, and
// the result is the median nanoseconds per call.
func (p *prober) timeCalls(name string, batch int, fn func()) float64 {
	reps := p.cfg.scaled(probeReps)
	fn() // first call pays for lazy set-up
	ns := make([]float64, reps)
	for r := range ns {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d := time.Since(t)
		p.cfg.tr.leaf("probe."+name, r, t, d)
		ns[r] = float64(d.Nanoseconds()) / float64(batch)
	}
	return median(ns)
}

// gbps samples a call that moves bytes bytes.
func (p *prober) gbps(name string, bytes int, fn func()) float64 {
	return float64(bytes) / p.timeCalls(name, 1, fn)
}

func must(err error) {
	if err != nil {
		panic(err) // a probe's fixed, valid arguments were refused: a bug here or in the surface
	}
}

// probesOf names each workload's probes. A probe does not depend on the
// workload around it, so it runs once: in the traced pass of the
// workload whose op it is cut to and, by the interaction table of the
// README, should move. Elsewhere its metric reads 0.
var probesOf = map[string]func(*prober) error{
	"pp_large":      (*prober).large,
	"pp_small":      (*prober).small,
	"typed_faulty":  (*prober).typed,
	"jobmix":        (*prober).wide,
	"figures_sweep": (*prober).sweep,
}

// runProbes runs one workload's probes and returns the metrics by name.
func runProbes(workload string, cfg passConfig) (out map[string]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe: %v", r)
		}
	}()
	p := &prober{cfg: cfg, out: map[string]float64{}}
	cfg.tr.begin("probes")
	defer cfg.tr.end()
	return p.out, probesOf[workload](p)
}

// layouts are the two typed_faulty layouts, compiled, with a filled
// 8 MiB source and a 4 MiB packed block.
type layouts struct {
	sendPlan, recvPlan *Plan
	src, packed        Block
}

func (p *prober) layouts() layouts {
	sendTy, err := sendLayout()
	must(err)
	recvTy, err := recvLayout()
	must(err)
	var l layouts
	l.sendPlan, err = compilePlan(sendTy)
	must(err)
	l.recvPlan, err = compilePlan(recvTy)
	must(err)
	l.src, l.packed = allocAligned(2*largeBytes), allocAligned(largeBytes)
	fillPattern(l.src, byte(p.cfg.seed))
	fillPattern(l.packed, byte(p.cfg.seed))
	return l
}

func getput(rank, n int) func() { return func() { putPooled(getPooledFor(rank, n)) } }

// large probes what one pp_large op is made of: the gather kernels on
// the 4 MiB every-other-double layout, the 512 KiB staging chunk, the
// two-rank match and the contiguous rendezvous.
func (p *prober) large() error {
	l := p.layouts()
	copyDst, stage := allocAligned(largeBytes), allocAligned(chunkBytes)
	memmove := p.gbps("datatype.memmove", largeBytes, func() { bufCopy(copyDst, l.packed) })
	pack := p.gbps("datatype.Plan.Pack", largeBytes, func() { must(planPack(l.sendPlan, l.src, l.packed)) })
	p.out["datatype.memmove_GBps"] = memmove
	p.out["datatype.pack_GBps"] = pack
	p.out["datatype.pack_vs_memmove"] = ratio(pack, memmove)
	p.out["datatype.pack_range_GBps"] = p.gbps("datatype.Plan.PackRange", largeBytes, func() {
		for lo := int64(0); lo < largeBytes; lo += chunkBytes {
			must(planPackRange(l.sendPlan, l.src, stage, lo, lo+chunkBytes))
		}
	})
	p.out["datatype.pipeline_GBps"] = p.gbps("datatype.ChunkPipeline", largeBytes, func() {
		cp, err := newChunkPipeline(l.sendPlan, l.src, chunkBytes, 3)
		must(err)
		for ch, ok := pipelineNext(cp); ok; ch, ok = pipelineNext(cp) {
			pipelineRecycle(cp, ch)
		}
		pipelineClose(cp)
	})
	p.out["buf.getput_512KiB_ns"] = p.timeCalls("buf.GetPooledFor.512KiB", 1000, getput(0, chunkBytes))
	pair := newFabric(2)
	p.out["simnet.deliver_match_ns"] = p.timeCalls("simnet.Deliver+Match", 1000, func() {
		fabricDeliver(pair, 0, 1, 0)
		fabricMatch(pair, 1, 0, 0)
	})
	return p.inWorld("mpi.sendrecv_4MiB_us", 2, exchange(largeBytes))
}

// small probes what one pp_small op is made of: the 1 KiB kernel and
// pool round trip, the zero-byte protocol exchange and the timer the
// batches are read with.
func (p *prober) small() error {
	p.out["bench.timer_ns"] = p.timeCalls("bench.timer", 1000, func() { _ = time.Since(time.Now()) })
	smallTy, err := vectorType(smallBytes/8, 1, 2)
	must(err)
	smallPlan, err := compilePlan(smallTy)
	must(err)
	src, packed := allocAligned(2*smallBytes), allocAligned(smallBytes)
	fillPattern(src, byte(p.cfg.seed))
	p.out["datatype.pack_1KiB_ns"] = p.timeCalls("datatype.Plan.Pack.1KiB", 1000, func() { must(planPack(smallPlan, src, packed)) })
	p.out["buf.getput_1KiB_ns"] = p.timeCalls("buf.GetPooledFor.1KiB", 1000, getput(0, smallBytes))

	// A second goroutine churns its own shard while shard 0 is sampled.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		other := getput(1, smallBytes)
		for !stop.Load() {
			other()
		}
	}()
	p.out["buf.getput_contended_ns"] = p.timeCalls("buf.GetPooledFor.contended", 1000, getput(0, smallBytes))
	stop.Store(true)
	wg.Wait()
	return p.inWorld("mpi.sendrecv_0B_us", 2, exchange(0))
}

// typed probes the receive and recovery side typed_faulty adds: scatter
// into the other layout, the fused pair iteration and both checksums.
func (p *prober) typed() error {
	l := p.layouts()
	dst := allocAligned(2 * largeBytes)
	p.out["datatype.unpack_GBps"] = p.gbps("datatype.Plan.Unpack", largeBytes, func() { must(planUnpack(l.recvPlan, l.packed, dst)) })
	p.out["datatype.fused_GBps"] = p.gbps("datatype.FusedCopy", largeBytes, func() { must(fusedCopy(l.sendPlan, l.recvPlan, l.src, dst)) })
	var sink uint64
	p.out["datatype.checksum_GBps"] = p.gbps("datatype.Plan.ChecksumRange", largeBytes, func() {
		sink += planChecksumRange(l.sendPlan, l.src, 0, largeBytes)
	})
	p.out["buf.checksum_GBps"] = p.gbps("buf.ChecksumOf", largeBytes, func() { sink += checksumOf(l.packed) })
	runtime.KeepAlive(sink)
	return nil
}

// wide probes jobmix's scale: rank 0 of a 256-rank fabric with a live
// queue per peer, the start of a 256-rank world, and a typed collective
// (8 ranks, 512 KiB every-other-double slots).
func (p *prober) wide() error {
	const n = 256
	fabric := newFabric(n)
	for src := 1; src < n; src++ {
		fabricDeliver(fabric, src, 0, 0)
		fabricMatch(fabric, 0, src, 0)
	}
	src := 0
	next := func() int { src = src%(n-1) + 1; return src }
	p.out["simnet.deliver_match_256_ns"] = p.timeCalls("simnet.Deliver+Match.256", 1000, func() {
		s := next()
		fabricDeliver(fabric, s, 0, 0)
		fabricMatch(fabric, 0, s, 0)
	})
	p.out["simnet.wild_match_256_ns"] = p.timeCalls("simnet.Deliver+Match.wild256", 1000, func() {
		fabricDeliver(fabric, next(), 0, 0)
		fabricMatch(fabric, 0, anySource, 0)
	})
	p.worldStart(n)
	return p.inWorld("mpi.allgather_type_8_us", allgatherN, func(c *Comm) func() {
		ty, err := vectorType(allgatherLen/8, 1, 2)
		must(err)
		send, recv := allocAligned(2*allgatherLen), allocAligned(2*allgatherLen*allgatherN)
		fillPattern(send, byte(commRank(c)))
		return func() { must(commAllgatherType(c, send, recv, ty)) }
	})
}

// sweep probes what a figures_sweep cell pays for: a fresh type (an
// empty plan cache, so every call compiles), the start of a two-rank
// world, and one harness cell.
func (p *prober) sweep() error {
	p.out["datatype.commit_us"] = p.timeCalls("datatype.Commit", 100, func() {
		ty, err := sendLayout()
		must(err)
		_, err = compilePlan(ty)
		must(err)
	}) / 1e3
	p.worldStart(2)
	p.out["harness.measure_cell_us"] = p.timeCalls("harness.Measure", 1, func() {
		_, err := measureCell(profile, schemePackV, forBytes(1<<20))
		must(err)
	}) / 1e3
	return nil
}

func (p *prober) worldStart(size int) {
	empty := func(*Comm) error { return nil }
	p.out[fmt.Sprintf("mpi.world_start_us.%d", size)] = p.timeCalls(fmt.Sprintf("mpi.Run.%d", size), 1, func() {
		must(runWorld(size, profile, nil, empty))
	}) / 1e3
}

// inWorld samples one collective call per rank inside a live world;
// rank 0 takes the samples.
func (p *prober) inWorld(name string, size int, setup func(c *Comm) func()) error {
	reps := p.cfg.scaled(probeReps)
	return runWorld(size, profile, nil, func(c *Comm) error {
		call := setup(c)
		if commRank(c) != 0 {
			for i := 0; i <= reps; i++ {
				call()
			}
			return nil
		}
		p.out[name] = p.timeCalls(name, 1, call) / 1e3
		return nil
	})
}

// exchange is a send of bytes bytes from rank 0 to rank 1 with its
// zero-byte reply.
func exchange(bytes int) func(c *Comm) func() {
	return func(c *Comm) func() {
		payload, reply := allocAligned(bytes), alloc(0)
		if commRank(c) == 0 {
			return func() {
				must(commSend(c, payload, 1, 0))
				must(commRecv(c, reply, 1, 1))
			}
		}
		return func() {
			must(commRecv(c, payload, 0, 0))
			must(commSend(c, reply, 0, 1))
		}
	}
}

// calibration is the noise sentinel: a fixed copy loop and a fixed
// two-goroutine channel ping, run before and after each workload. If
// they drift, the machine changed under the measurement.
type calibration struct {
	MemmoveGBps float64 `json:"memmove_GBps"`
	HandoffNS   float64 `json:"handoff_ns"`
}

func calibrate(cfg passConfig) (calibration, error) {
	// The copy loop's buffers are mapped afresh and unmapped again: on
	// the Go heap they would change the program's GC pacing, and memory
	// the workload has left behind copies at another speed than new
	// memory does.
	mem, err := syscall.Mmap(-1, 0, 2*largeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return calibration{}, fmt.Errorf("calibration buffers: %w", err)
	}
	defer syscall.Munmap(mem)
	src, dst := mem[:largeBytes], mem[largeBytes:]
	for i := range src {
		src[i] = byte(i)
	}
	var copies []float64
	for i := 0; i < cfg.scaled(400); i++ {
		t := time.Now()
		copy(dst, src)
		copies = append(copies, float64(time.Since(t).Nanoseconds()))
	}

	const pings = 2000
	ping, pong := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range ping {
			pong <- struct{}{}
		}
	}()
	var trips []float64
	for r := 0; r < cfg.scaled(400); r++ {
		t := time.Now()
		for i := 0; i < pings; i++ {
			ping <- struct{}{}
			<-pong
		}
		trips = append(trips, float64(time.Since(t).Nanoseconds())/pings)
	}
	close(ping)
	<-done
	return calibration{MemmoveGBps: largeBytes / median(copies), HandoffNS: median(trips)}, nil
}

// drift is the larger relative change between two calibrations.
func (a calibration) drift(b calibration) float64 {
	rel := func(x, y float64) float64 {
		if x > y {
			x, y = y, x
		}
		return ratio(y, x) - 1
	}
	return max(rel(a.MemmoveGBps, b.MemmoveGBps), rel(a.HandoffNS, b.HandoffNS))
}
