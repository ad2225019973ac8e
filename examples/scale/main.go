// Scale: drive a concurrent job mix — four independent ring
// communicators over one simulated fabric, every rank holding four
// typed transfers in flight — and read the sustained aggregate
// throughput, the completion tail, and the fabric's shard-contention
// attribution. Payloads are virtual (length-only), so hundreds of
// ranks run in well under a second of wall time; all reported times
// are virtual clock.
//
// Run with:
//
//	go run ./examples/scale
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	prof, err := repro.ProfileByName("skx-impi")
	if err != nil {
		log.Fatal(err)
	}

	// 256 ranks over 4 ring communicators (job j owns the world ranks
	// with rank%4 == j), each rank posting 4 non-blocking typed
	// transfers (IrecvType from the left ring neighbour, IsendvType to
	// the right) before any are drained: 1024 typed transfers in
	// flight across the fabric at the peak. NodeSize overlays a node
	// hierarchy — 16 consecutive ranks per node with an intra-node
	// latency discount — so the mix's barriers and collectives ride
	// the two-level topologies.
	mix := repro.JobMix{
		Ranks:    256,
		Jobs:     4,
		InFlight: 4,
		Rounds:   2,
		Bytes:    1 << 20, // 1 MiB per transfer: rendezvous territory
		Profile:  prof,
		NodeSize: 16,
	}
	res, err := repro.RunJobMix(mix)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("job mix: %d ranks × %d jobs × %d in flight × %d rounds, %d-byte typed transfers\n",
		res.Ranks, res.Jobs, res.InFlight, res.Rounds, res.Bytes)
	fmt.Printf("  completed %d transfers in %.3gs virtual — %.1f GB/s aggregate\n",
		res.Transfers, res.Elapsed, res.AggregateGBs)
	fmt.Printf("  completion: p50 %.3gs, p99 %.3gs\n", res.P50, res.P99)
	fmt.Printf("  peak concurrent typed transfers: %d\n", res.InFlightPeak)

	// The matching attribution is the point of the sharded matcher:
	// every receive here names its source, so all matches take the
	// per-(communicator, source) fast path — no global scan, no
	// wildcard slow path, regardless of how many jobs share the
	// fabric.
	fmt.Printf("  matching: %d shard queues live, %d fast-path takes, %d wildcard takes\n",
		res.Matching.Queues, res.Matching.FastTakes, res.Matching.WildTakes)
	fmt.Printf("  pool: %d gets\n", res.Pool.Gets)

	// The same hierarchy feeds the collective cost model: on a
	// machine with 16 ranks per node and a cheap intra-node hop, the
	// two-level topology (leader tree over nodes plus intra-node
	// fans) beats the flat fan by crossing the wire once per node
	// instead of once per rank.
	hier := *prof
	hier.Mem.NodeSize = 16
	hier.IntraNodeLatency = hier.NetLatency / 10
	m, err := repro.Price(repro.Query{Bytes: 4096, Profile: &hier, Ranks: 256})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncollective model at 256 ranks, 4 KiB slots: flat %.3gs vs two-level %.3gs over %d nodes — %.2fx\n",
		m.Clean[repro.Sendv], m.TwoLevel, m.Nodes, m.Clean[repro.Sendv]/m.TwoLevel)
}
