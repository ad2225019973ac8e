package harness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// TestJobMixScaleSmoke is the concurrent job-mix smoke at scale: four
// ring communicators over one fabric, every rank holding several typed
// transfers in flight. Under the race detector the mix is capped so
// the instrumented run stays fast; the plain run drives 256 ranks with
// 1024 concurrent transfers — the acceptance regime.
func TestJobMixScaleSmoke(t *testing.T) {
	mix := JobMix{Ranks: 256, Jobs: 4, InFlight: 4, Rounds: 2, Bytes: 1 << 20,
		NodeSize: 16, WallLimit: 4 * time.Minute}
	if raceEnabled {
		mix.Ranks, mix.InFlight, mix.Rounds = 64, 2, 1
	}
	res, err := RunJobMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	wantTransfers := int64(mix.Ranks * mix.InFlight * mix.Rounds)
	if res.Transfers != wantTransfers {
		t.Errorf("completed %d transfers, want %d", res.Transfers, wantTransfers)
	}
	wantPeak := int64(mix.Ranks * mix.InFlight)
	if res.InFlightPeak < wantPeak {
		t.Errorf("in-flight peak %d, want ≥ %d (the post/drain barrier pins it)", res.InFlightPeak, wantPeak)
	}
	if !raceEnabled && res.InFlightPeak < 1000 {
		t.Errorf("in-flight peak %d, acceptance wants ≥1000 concurrent typed transfers", res.InFlightPeak)
	}
	if res.AggregateGBs <= 0 {
		t.Errorf("aggregate throughput %.3f GB/s, want >0", res.AggregateGBs)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("completion quantiles p50=%g p99=%g, want 0 < p50 ≤ p99", res.P50, res.P99)
	}
	if res.Matching.FastTakes == 0 {
		t.Errorf("matching attribution recorded no fast-path takes: %+v", res.Matching)
	}
	if res.Matching.Queues == 0 {
		t.Errorf("matching attribution recorded no shard queues: %+v", res.Matching)
	}
	if res.Elapsed <= 0 {
		t.Errorf("elapsed virtual time %g, want >0", res.Elapsed)
	}
}

// TestJobMixUnderFaults is the chaos-at-scale smoke: the same
// concurrent mix with the fault injector armed. The run must still
// complete every transfer, the recovery attribution must show both the
// injected damage and the machinery that repaired it, and the repair
// traffic must be selective — chunks, not whole transfers.
func TestJobMixUnderFaults(t *testing.T) {
	mix := JobMix{Ranks: 32, Jobs: 2, InFlight: 2, Rounds: 2, Bytes: 1 << 20,
		WallLimit: 4 * time.Minute,
		Faults:    simnet.UniformFaults(97, 0.04)}
	if raceEnabled {
		mix.Ranks, mix.InFlight = 16, 1
	}
	res, err := RunJobMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	wantTransfers := int64(mix.Ranks * mix.InFlight * mix.Rounds)
	if res.Transfers != wantTransfers {
		t.Errorf("completed %d transfers, want %d", res.Transfers, wantTransfers)
	}
	if res.AggregateGBs <= 0 {
		t.Errorf("aggregate throughput %.3f GB/s, want >0", res.AggregateGBs)
	}
	if r := res.Recovery; r.Drops+r.Corruptions+r.Truncations == 0 {
		t.Errorf("4%% fault rate recorded no injected faults: %+v", res.Recovery)
	}
	if res.Recovery.Retries == 0 && res.Recovery.ChunkRetransmits == 0 {
		t.Errorf("recovery attribution shows no repair work: %+v", res.Recovery)
	}
	// Clean baseline for comparison: same mix, no faults.
	mix.Faults = nil
	clean, err := RunJobMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Recovery != (RecoveryStats{}) {
		t.Errorf("clean mix recorded recovery activity: %+v", clean.Recovery)
	}
	if res.Elapsed < clean.Elapsed {
		t.Errorf("faulted mix finished in %g s, under the clean %g s", res.Elapsed, clean.Elapsed)
	}
}

// TestJobMixValidation pins the mix's argument checks.
func TestJobMixValidation(t *testing.T) {
	if _, err := RunJobMix(JobMix{Ranks: 1}); err == nil {
		t.Error("1-rank mix accepted")
	}
	if _, err := RunJobMix(JobMix{Ranks: 4, Jobs: 3}); err == nil {
		t.Error("4 ranks over 3 jobs accepted (rings under 2 ranks)")
	}
}

// TestJobMixAccountingReturnsToZero: a finished mix leaves nothing
// behind — every rank, request half and detector goroutine has exited
// and every pooled byte is back — on a clean fabric and under
// TestJobMixUnderFaults' plan.
func TestJobMixAccountingReturnsToZero(t *testing.T) {
	mix := JobMix{Ranks: 32, Jobs: 2, InFlight: 2, Rounds: 2, Bytes: 1 << 20, WallLimit: 4 * time.Minute}
	if raceEnabled {
		mix.Ranks, mix.InFlight = 16, 1
	}
	for _, faults := range []*simnet.FaultPlan{nil, simnet.UniformFaults(97, 0.04)} {
		mix.Faults = faults
		goroutines, inUse := runtime.NumGoroutine(), buf.PoolStatsSnapshot().InUseBytes
		if _, err := RunJobMix(mix); err != nil {
			t.Fatal(err)
		}
		// A goroutine that has released its waiter may still be on its
		// way out; give the scheduler a moment, then insist.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > goroutines {
			t.Errorf("faults=%v: %d goroutines after the mix, %d before", faults != nil, got, goroutines)
		}
		if got := buf.PoolStatsSnapshot().InUseBytes; got != inUse {
			t.Errorf("faults=%v: pool holds %d bytes in use after the mix, %d before", faults != nil, got, inUse)
		}
	}
}

// BenchmarkJobMixRound is the wall cost of one cmd/bench jobmix op: 8
// ring communicators over 256 ranks in nodes of 16, 4 virtual 1 MiB
// typed transfers in flight per rank, 8 rounds, on skx-impi — requests,
// matching and the scheduler, no bytes. Profile it with -cpuprofile /
// -memprofile -memprofilerate 1.
func BenchmarkJobMixRound(b *testing.B) {
	p, err := perfmodel.ByName("skx-impi")
	if err != nil {
		b.Fatal(err)
	}
	mix := JobMix{Ranks: 256, Jobs: 8, InFlight: 4, Rounds: 8, NodeSize: 16, Bytes: 1 << 20, Profile: p}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunJobMix(mix); err != nil {
			b.Fatal(err)
		}
	}
}
