// Package guidelines encodes Hunold/Träff/Carpen-Amarie-style
// performance guidelines ("MPI Derived Datatypes: Performance
// Expectations and Status Quo") as executable properties over the
// virtual clock: each rule bounds one engine by an alternative that
// moves the same bytes (a typed send by pack+send, a collective by its
// point-to-point decomposition, the recommender's choice by every
// alternative scheme), and a sweep executes both sides of every rule
// on simnet across a (layout × size × scheme × installation) grid and
// reports each cell's measured ratio. Violations — cells whose
// left-hand side exceeds Tolerance × right-hand side — come back as
// structured records with PlanStats attribution; the baseline file
// (baseline.txt) waives the violations that are expected by design,
// the paper's own finding that derived-datatype sends degrade at large
// sizes (§4.1), so CI can fail on *new* violations only.
package guidelines

import (
	"fmt"
	"sort"

	"repro/internal/datatype"
)

// Rule identifies one performance guideline.
type Rule int

// The rule table. Every rule is a bound "Lhs ≤ Tolerance·Rhs" over
// measured virtual-clock times of the same payload.
const (
	// TypedVsPack: a derived-datatype send must not lose to MPI_Pack
	// of the same type followed by a contiguous send — the original
	// Hunold/Träff guideline, and the one the paper shows real MPIs
	// violate at large sizes.
	TypedVsPack Rule = iota
	// SendvVsStaged: the fused zero-copy rendezvous (sendv) must not
	// lose to the staged typed send it replaces.
	SendvVsStaged
	// PipelinedVsSerial: the software-pipelined chunk engine at slot
	// depth ≥ 2 must not lose to the serial chunk loop.
	PipelinedVsSerial
	// BcastVsLinearFan: BcastType must not lose to a linear fan of
	// typed sends from the root.
	BcastVsLinearFan
	// AllgatherVsGatherBcast: AllgatherType must not lose to
	// GatherType followed by a contiguous broadcast of the slab.
	AllgatherVsGatherBcast
	// CollectiveVsP2P: a typed collective (GatherType) must not lose
	// to its explicit point-to-point decomposition (pack, send, unpack
	// per leg).
	CollectiveVsP2P
	// RecommenderMinimal: the scheme Recommend picks under GoalFastest
	// must not lose to any alternative scheme on the measured grid.
	RecommenderMinimal
	// NormalizedVsRaw: a type whose program the Commit-time normalizer
	// canonicalised must never price slower than the raw table walk
	// over the same runs — its datatype.GatherTwin — on the identical
	// payload: the normalization pass may only help.
	NormalizedVsRaw

	numRules
)

var ruleNames = [numRules]string{
	TypedVsPack:            "typed<=pack+send",
	SendvVsStaged:          "sendv<=staged",
	PipelinedVsSerial:      "pipelined<=serial",
	BcastVsLinearFan:       "bcast<=linear-fan",
	AllgatherVsGatherBcast: "allgather<=gather+bcast",
	CollectiveVsP2P:        "collective<=p2p",
	RecommenderMinimal:     "recommended<=alternatives",
	NormalizedVsRaw:        "normalized<=raw",
}

func (r Rule) String() string {
	if r < 0 || r >= numRules {
		return fmt.Sprintf("rule(%d)", int(r))
	}
	return ruleNames[r]
}

// Rules lists every rule in table order.
func Rules() []Rule {
	out := make([]Rule, numRules)
	for i := range out {
		out[i] = Rule(i)
	}
	return out
}

// Cell locates one measured property instance on the sweep grid.
type Cell struct {
	Rule    Rule
	Profile string // installation name
	Layout  string // layout spec name
	Bytes   int64  // per-rank payload bytes
	Ranks   int    // world size of the measurement
}

// Key is the cell's stable identity, the baseline-file key.
func (c Cell) Key() string {
	return fmt.Sprintf("%s|%s|%s|%d|%d", c.Rule, c.Profile, c.Layout, c.Bytes, c.Ranks)
}

// Result is one executed property: the bound's two measured sides and
// the verdict.
type Result struct {
	Cell
	// LhsName and RhsName say which engines were measured; Lhs and Rhs
	// are their virtual-clock seconds per operation.
	LhsName, RhsName string
	Lhs, Rhs         float64
	// Ratio is Lhs/Rhs; the rule demands Ratio ≤ Tolerance.
	Ratio float64
	// Violated is true when Ratio exceeds Tolerance.
	Violated bool
	// Plan attributes the Lhs measurement: which pack-engine tier
	// moved the bytes and whether the transfers were fused or staged.
	Plan datatype.PlanStats
}

// Attribution renders the PlanStats split the violation tables show.
func (r Result) Attribution() string {
	return fmt.Sprintf("fused %d/%dB staged %d/%dB pipelined %d cursor %d",
		r.Plan.FusedOps, r.Plan.FusedBytes, r.Plan.StagedOps, r.Plan.StagedBytes,
		r.Plan.PipelinedOps, r.Plan.CursorOps)
}

func (r Result) String() string {
	verdict := "ok"
	if r.Violated {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("%-26s %-9s %-8s %10d B  ranks %d  %s %.3g s vs %s %.3g s  ratio %.3f  %s",
		r.Rule, r.Profile, r.Layout, r.Bytes, r.Ranks, r.LhsName, r.Lhs, r.RhsName, r.Rhs, r.Ratio, verdict)
}

// Tolerance is the permitted Lhs/Rhs slack before a cell counts as
// violated.
const Tolerance = 1.05

// Report is the outcome of one sweep.
type Report struct {
	Results []Result
}

// Violations returns the violated cells, most severe first.
func (rp *Report) Violations() []Result {
	var out []Result
	for _, r := range rp.Results {
		if r.Violated {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

// ByRule groups the results in rule order.
func (rp *Report) ByRule() map[Rule][]Result {
	out := make(map[Rule][]Result)
	for _, r := range rp.Results {
		out[r.Rule] = append(out[r.Rule], r)
	}
	return out
}

// LayoutSpec is a layout family of the sweep grid: the block geometry,
// with the block count derived from each cell's payload size.
type LayoutSpec struct {
	Name     string
	BlockLen int // elements per block
	Stride   int // elements between block starts
}

// Config parameterises a sweep.
type Config struct {
	// Profiles are installation names (perfmodel registry); empty
	// means the three calibrated clusters of the acceptance grid.
	Profiles []string
	// Layouts are the layout families; empty means the canonical
	// every-other-double plus a dense 8-element-block family.
	Layouts []LayoutSpec
	// Sizes are per-rank payload bytes; empty means one eager-sized,
	// one rendezvous-sized and one large cell per family.
	Sizes []int64
	// Ranks is the collective world size (p2p rules always run on 2).
	Ranks int
	// Reps is the per-cell repetition count on the deterministic
	// virtual clock.
	Reps int
}

// DefaultConfig is the acceptance grid: the three calibrated
// installations, two layout families, eager through large sizes.
func DefaultConfig() Config {
	return Config{
		Profiles: []string{"skx-impi", "ls5-cray", "knl-impi"},
		Layouts: []LayoutSpec{
			{Name: "alt", BlockLen: 1, Stride: 2},
			{Name: "block8", BlockLen: 8, Stride: 16},
		},
		Sizes: []int64{8 << 10, 256 << 10, 4 << 20},
		Ranks: 4,
		Reps:  3,
	}
}

func (cfg Config) withDefaults() Config {
	d := DefaultConfig()
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = d.Profiles
	}
	if len(cfg.Layouts) == 0 {
		cfg.Layouts = d.Layouts
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = d.Sizes
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = d.Ranks
	}
	if cfg.Reps == 0 {
		cfg.Reps = d.Reps
	}
	return cfg
}

// Sweep executes every rule over the full grid and returns the
// report. Each p2p cell measures its schemes once through the paper's
// ping-pong harness and derives all point-to-point rules from the
// shared table; collective rules run their own bracketed worlds.
func Sweep(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rp := &Report{}
	for _, name := range cfg.Profiles {
		for _, lay := range cfg.Layouts {
			for _, n := range cfg.Sizes {
				cells, err := measureCell(name, lay, n, cfg)
				if err != nil {
					return nil, fmt.Errorf("guidelines: %s/%s/%d: %w", name, lay.Name, n, err)
				}
				rp.Results = append(rp.Results, cells...)
			}
		}
	}
	for i := range rp.Results {
		r := &rp.Results[i]
		r.Ratio = ratio(r.Lhs, r.Rhs)
		r.Violated = r.Ratio > Tolerance
	}
	return rp, nil
}

// ratio returns lhs/rhs, treating a non-positive rhs (nothing
// measured) as a trivially satisfied bound.
func ratio(lhs, rhs float64) float64 {
	if rhs <= 0 {
		return 1
	}
	return lhs / rhs
}
