// Command figures regenerates the paper's Figures 1–4: time,
// bandwidth and slowdown panels for the paper's eight send schemes —
// plus the compiled-pack packing(c) and fused-rendezvous sendv
// columns — on each simulated installation.
//
// Usage:
//
//	figures [-profile skx-impi|skx-mvapich|ls5-cray|knl-impi|all]
//	        [-per-decade 4] [-reps 20] [-max-real 16777216]
//	        [-csv dir] [-check] [-what-if] [-plan] [-plancache] [-fused]
//	        [-halo] [-pipeline] [-guidelines] [-chaos] [-canon] [-scale]
//
// Study flags:
//
//	-csv dir     write one CSV file per figure into dir
//	-check       E10: the cost-model factor table per profile
//	-what-if     E11: the NIC-pipelining ablation (paper ref [2])
//	-plan        E12: the pack-plan compiler study (compiled vs
//	             interpreted packing bandwidth)
//	-plancache   E13: the plan-cache study (cold vs warm compile
//	             bandwidth with cache hit rates, chunked cursor vs
//	             compiled kernels)
//	-fused       E14: the fused-transfer study (fused one-pass vs
//	             staged pack+unpack vs interpreting cursor bandwidth
//	             across the paper's layouts — the engine behind the
//	             sendv scheme)
//	-halo        E15: the halo-exchange study (2-D/3-D subarray face
//	             exchange over typed collectives — AllgatherType with
//	             extent-resized halo slots, fused self-legs and fused
//	             sendv remote legs — against the manual
//	             pack → contiguous collective → unpack pipeline, with
//	             PlanStats fused-vs-staged attribution per cell)
//	-pipeline    E16: the pipelined chunk-engine study (serial chunk
//	             loop vs SendpType's pack/inject overlap vs the fused
//	             sendv bound, swept across internal chunk sizes on the
//	             paper's layouts, plus the pipelined scatter+allgather
//	             BcastType against the binomial tree at 8 ranks — every
//	             pipelined cell reports its PipelinedOps/PipelinedBytes
//	             overlap attribution)
//	-guidelines  E17: the performance-guidelines verifier (Hunold/Träff
//	             rules as executable properties: typed ≤ pack+send,
//	             sendv ≤ staged, pipelined ≤ serial, each typed
//	             collective ≤ its p2p decomposition, recommended ≤
//	             every alternative — swept over layout × size ×
//	             installation with per-cell PlanStats attribution,
//	             violations diffed against the waiver baseline exactly
//	             as the CI gate does, plus the self-tuned recommender
//	             panel fed from observed virtual-clock fits)
//	-chaos       E18: the fault-recovery chaos study (the serial,
//	             pipelined and fused engines moving the same typed
//	             payload while the fabric injects a swept rate of
//	             drops/corruption/truncation/duplication/reordering/
//	             delays — goodput and p99 completion tails per rate,
//	             retry and integrity-reject attribution from the
//	             fabric counters, and the first-order reliability
//	             model's predicted slowdown, delivery probability and
//	             fault-adjusted recommendation alongside, plus the
//	             observed fault profile calibrated back from the
//	             sweep's own retry counters)
//	-canon       E19: the canonical-normalizer study (the Commit-time
//	             datatype normalizer and the closed block forms it
//	             produces: normalized vs raw pack bandwidth on
//	             hvector-of-vector, 3-D subarray and an irregular
//	             indexed control, with per-type run-count reductions,
//	             kernel classes and CanonicalString forms; runs once
//	             per invocation — wall time, profile-independent)
//	-scale       E20: the sustained-throughput scale study (a concurrent
//	             job mix — several independent ring communicators over
//	             one fabric, every rank holding multiple typed transfers
//	             in flight — swept from 64 to 1024 ranks on a
//	             16-ranks-per-node hierarchy; aggregate GB/s and p99
//	             per-transfer completion against rank count, with the
//	             fabric's shard-contention attribution per cell:
//	             fast-path vs wildcard matches, live shard queues,
//	             pool-pressure eager adaptations; payloads virtual, so
//	             the 10³-rank end stays laptop-sized)
//	-chaosscale  E21: the chaos-at-scale study (the E20 concurrent job
//	             mix with the fault injector armed, swept over rank
//	             count × fault rate; per cell the goodput retention and
//	             p99 tail inflation against the clean baseline, the
//	             summed recovery attribution — injected faults,
//	             retries, integrity rejects, selectively retransmitted
//	             chunks and bytes, suppressed duplicates — and a
//	             measured counterfactual arm with selective
//	             retransmission disabled, so the per-chunk protocol's
//	             goodput edge over whole-transfer replay is read off
//	             the same fabric; the reliability model prices the
//	             same comparison analytically alongside)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/figures"
	"repro/internal/harness"
	"repro/internal/perfmodel"
)

func main() {
	profile := flag.String("profile", "all", "installation profile, or 'all'")
	perDecade := flag.Int("per-decade", 4, "sweep points per decade of message size")
	reps := flag.Int("reps", 20, "ping-pongs per measurement (paper: 20)")
	maxReal := flag.Int64("max-real", 16<<20, "largest materialised payload in bytes; larger runs are virtual")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files")
	check := flag.Bool("check", false, "also print the E10 cost-model factor table")
	whatIf := flag.Bool("what-if", false, "also print the E11 NIC-pipelining ablation (paper ref [2])")
	planStudy := flag.Bool("plan", false, "also print the E12 pack-plan compiler study (compiled vs interpreted packing)")
	planCache := flag.Bool("plancache", false, "also print the E13 plan-cache study (cold vs warm compile, chunked cursor vs compiled kernels)")
	fused := flag.Bool("fused", false, "also print the E14 fused-transfer study (fused vs staged vs cursor bandwidth)")
	halo := flag.Bool("halo", false, "also print the E15 halo-exchange study (typed collectives vs manual pack over subarray faces)")
	pipeline := flag.Bool("pipeline", false, "also print the E16 pipelined chunk-engine study (serial vs pipelined vs fused across chunk sizes)")
	guidelinesFlag := flag.Bool("guidelines", false, "also print the E17 performance-guidelines verifier (rule table, baseline-diffed violations, self-tuned recommender)")
	chaos := flag.Bool("chaos", false, "also print the E18 fault-recovery chaos study (goodput and p99 tail vs injected fault rate with retry attribution and the reliability model)")
	canon := flag.Bool("canon", false, "also print the E19 canonical-normalizer study (normalized vs raw pack bandwidth with run-count reductions and kernel classes)")
	scale := flag.Bool("scale", false, "also print the E20 sustained-throughput scale study (concurrent job mix at 64-1024 ranks: aggregate GB/s, p99 completion, shard-contention attribution)")
	chaosScale := flag.Bool("chaosscale", false, "also print the E21 chaos-at-scale study (the E20 job mix under injected faults across rank count x fault rate, with recovery attribution and the measured whole-replay counterfactual)")
	flag.Parse()

	profiles := []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"}
	if *profile != "all" {
		profiles = []string{*profile}
	}
	opt := harness.DefaultOptions()
	opt.Reps = *reps
	opt.MaxRealBytes = *maxReal
	sizes := figures.DefaultSizes(*perDecade)

	for _, name := range profiles {
		if _, err := perfmodel.ByName(name); err != nil {
			fatal(err)
		}
		fig, err := figures.Build(name, sizes, opt)
		if err != nil {
			fatal(err)
		}
		if err := fig.Render(os.Stdout); err != nil {
			fatal(err)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, name+".csv")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := fig.WriteCSV(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *check {
			ck, err := figures.BuildCostModelCheck(name, 100_000_000, opt)
			if err != nil {
				fatal(err)
			}
			if err := ck.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		if *whatIf {
			st, err := figures.BuildPipeliningStudy(name, sizes, opt)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("pipelining would recover %.1fx at the largest size (§2.3, ref [2])\n\n", st.LargeGain())
		}
		if *planStudy {
			st, err := figures.BuildPackPlanStudy(name, sizes, opt)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("compiled packing is %.2fx interpreted at the largest size\n\n",
				st.CompiledSpeedupAt(sizes[len(sizes)-1]))
		}
		if *planCache {
			// Real-byte wall-time study: keep the sweep compact.
			cacheSizes := []int64{64 << 10, 1 << 20, 8 << 20}
			cacheOpt := opt
			if cacheOpt.Reps > 12 {
				cacheOpt.Reps = 12
			}
			st, err := figures.BuildPlanCacheStudy(name, cacheSizes, cacheOpt)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("warm plan cache is %.2fx cold compile at the largest size (steady state clean: %v)\n\n",
				st.WarmSpeedupAt(cacheSizes[len(cacheSizes)-1]), st.SteadyStateClean())
		}
		if *fused {
			// Real-byte wall-time study: keep the sweep compact.
			fusedSizes := []int64{256 << 10, 1 << 20, 8 << 20}
			fusedOpt := opt
			if fusedOpt.Reps > 12 {
				fusedOpt.Reps = 12
			}
			st, err := figures.BuildFusedStudy(name, fusedSizes, fusedOpt)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("fused transfer is %.2fx the staged pack+unpack on the everyOther->everyThird pair at the largest size\n\n",
				st.FusedSpeedupAt("everyOther->everyThird", fusedSizes[len(fusedSizes)-1]))
		}
		if *halo {
			haloOpt := opt
			if haloOpt.Reps > 8 {
				haloOpt.Reps = 8
			}
			st, err := figures.BuildHaloStudy(name, haloOpt)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("typed collectives are %.2fx manual pack on the contiguous 3-D planes at the largest tile\n\n",
				st.TypedSpeedupAt("3d-z plane (contig)"))
		}
		if *pipeline {
			st, err := figures.BuildPipelineStudy(name, nil, nil)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			chunk := st.Profile.InternalChunk()
			fmt.Printf("the pipelined chunk engine is %.2fx the serial loop on every-other doubles at the profile's %d-byte chunks\n\n",
				st.PipelinedSpeedupAt("everyOther", chunk), chunk)
		}
		if *guidelinesFlag {
			st, err := figures.BuildGuidelinesStudy(name)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			verdict := "passes"
			if !st.Clean() {
				verdict = "FAILS"
			}
			fmt.Printf("the guidelines gate %s against the checked-in baseline (%d waived cells)\n\n",
				verdict, st.Baseline.Len())
		}
		if *chaos {
			st, err := figures.BuildChaosStudy(name, nil, 0)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("at a 5%% fault rate the fused engine retains %.0f%% of its clean goodput\n\n",
				100*st.CleanOverheadAt("fused zero-copy (SendvType)", 0.05))
		}
		if *scale {
			st, err := figures.BuildScaleStudy(name, nil)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("the fabric sustained %d concurrent typed transfers at its widest mix\n\n", st.PeakInFlight())
		}
		if *chaosScale {
			st, err := figures.BuildChaosScaleStudy(name, nil, nil)
			if err != nil {
				fatal(err)
			}
			if err := st.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Printf("at a 5%% fault rate and 64 ranks the selective protocol retained %.0f%% of clean goodput (whole-transfer replay: %.0f%%)\n\n",
				100*st.GoodputRatioAt(64, 0.05), 100*st.WholeReplayRatioAt(64, 0.05))
		}
	}
	if *canon {
		// Real-byte wall-time study, independent of the installation
		// profiles: run once per invocation.
		canonSizes := []int64{256 << 10, 1 << 20, 8 << 20}
		canonOpt := opt
		if canonOpt.Reps > 12 {
			canonOpt.Reps = 12
		}
		st, err := figures.BuildCanonStudy(canonSizes, canonOpt)
		if err != nil {
			fatal(err)
		}
		if err := st.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Printf("the normalized block kernel is %.2fx the raw table walk on nested 8-byte runs at the largest size\n\n",
			st.CanonSpeedupAt("hvecOfVec8B", canonSizes[len(canonSizes)-1]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
