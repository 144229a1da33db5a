package main

import (
	"fmt"
	"math/rand"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/faults"
	"symriscv/internal/iss"
	"symriscv/internal/microrv32"
	"symriscv/internal/pipecore"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
// Later changes refer to them by these names.
var workloadNames = []string{"exhaust-l1", "deep-l2", "bug-hunt", "par-w2"}

// deepPaths bounds each deep-l2 exploration. Per-check cost grows with the
// age of the solver context, so the bound sets how far into that regime the
// workload reaches: at 1200 a check costs over twice what it does under
// DFS, and one repetition takes three to five seconds on a 2-CPU x86-64 host,
// so a run holds several. The microrv32 tree's first mismatch is path 593.
const deepPaths = 1200

// cellBudget is the per-cell exploration budget harness.RunTable2 applies by
// default; the direct runs of a cell use the same bound.
const cellBudget = 60 * time.Second

// exploration is one fresh exploration of a co-simulation configuration.
// Its name keys the pinned deterministic fields, so an exploration shared by
// two workloads (the exhaustive microrv32 tree, the Table II cells) is
// pinned once and checked the same way at every worker count.
type exploration struct {
	name string
	cfg  cosim.Config
	opts core.Options
	// tree marks a path-tree leg: it counts towards paths_per_s and, having
	// no fault cell beside it, towards ttb_p50_s.
	tree bool
}

// part is one timed call into the program. A tree part explores one
// configuration: at one worker through core.NewExplorer, at more through
// harness.LongRun (which routes to parexplore.Explore), the command-line
// user's view. A cell part is one harness.RunTable2 call over faults ×
// limits on one core; its cells expand into explorations for the direct
// runs that the traced run and the witness check make.
type part struct {
	workers int
	tree    *exploration
	// Table II cell part.
	core   cosim.CoreKind
	faults []faults.Fault
	limits []int
}

// explorations lists the part's explorations in run order.
func (p part) explorations() []exploration {
	if p.tree != nil {
		return []exploration{*p.tree}
	}
	var out []exploration
	for _, f := range p.faults {
		for _, l := range p.limits {
			out = append(out, cellExploration(p.core, f, l))
		}
	}
	return out
}

// workload is a fixed amount of work: a list of parts, run in an order the
// seed picks. Only the order depends on the seed, so every seed does the
// same work and the ten-seed spread measures the host, not the input.
type workload struct {
	name  string
	parts []part
}

// newWorkload builds the named workload's inputs from the seed. treeSeed
// seeds deep-l2's random-path search (see deepTreeSeed).
func newWorkload(name string, seed, treeSeed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &workload{name: name}
	switch name {
	case "exhaust-l1":
		// The paper's §V-A exemplary run with fixed work: both longrun
		// configurations at limit 1, run to exhaustion at one worker. The
		// query cache removes most engine queries here, the rvfi checker
		// and witness extraction run on every microrv32 mismatch, and fork
		// resume saves no replay events at limit 1.
		w.parts = []part{
			{workers: 1, tree: treeExploration(cosim.CoreMicroRV32, 1, core.SearchDFS, 0, 0)},
			{workers: 1, tree: treeExploration(cosim.CorePipecore, 1, core.SearchDFS, 0, 0)},
		}
	case "deep-l2":
		// The same two configurations at limit 2 under random-path search,
		// bounded to deepPaths paths. The solver check dominates wall time
		// and its per-check cost grows with solver-context age; fork resume
		// saves several replay events per resume.
		w.parts = []part{
			{workers: 1, tree: treeExploration(cosim.CoreMicroRV32, 2, core.SearchRandom, treeSeed, deepPaths)},
			{workers: 1, tree: treeExploration(cosim.CorePipecore, 2, core.SearchRandom, treeSeed, deepPaths)},
		}
	case "bug-hunt":
		// Table II at one worker: E0–E9 at limits 1 and 2 on microrv32 and
		// E10–E11 at limit 2 on pipecore, 22 fresh explorations that each
		// stop on the first finding. Per-exploration set-up and a cache
		// that fills rather than hits dominate. E12–E14 are left out: each
		// takes tens of seconds and would swamp the other cells.
		w.parts = []part{
			{workers: 1, core: cosim.CoreMicroRV32, faults: shuffled(rng, faults.Base()), limits: []int{1, 2}},
			{workers: 1, core: cosim.CorePipecore, faults: shuffled(rng, []faults.Fault{faults.E10, faults.E11}), limits: []int{2}},
		}
	case "par-w2":
		// The only workload where parexplore works: two workers, the CLI
		// default. The exhaustive microrv32 limit-1 tree is unbounded
		// sharding; the ten microrv32 limit-2 Table II cells are bounded
		// sharding, where workers execute paths the canonical cut then
		// discards. paths_per_s comes from the tree, ttb_p50_s from the
		// cells, so a fix to one kind of sharding cannot hide a loss on the
		// other. Pipecore stays out: its bounded two-worker runs vary by 2×.
		// The tree leg runs twice per repetition: it is short and its
		// time depends on how the workers happen to share work, so one
		// sample per repetition would leave paths_per_s unsteady.
		tree := treeExploration(cosim.CoreMicroRV32, 1, core.SearchDFS, 0, 0)
		w.parts = []part{
			{workers: 2, tree: tree},
			{workers: 2, tree: tree},
			{workers: 2, core: cosim.CoreMicroRV32, faults: shuffled(rng, faults.Base()), limits: []int{2}},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	rng.Shuffle(len(w.parts), func(i, j int) { w.parts[i], w.parts[j] = w.parts[j], w.parts[i] })
	return w, nil
}

func shuffled(rng *rand.Rand, fs []faults.Fault) []faults.Fault {
	out := append([]faults.Fault(nil), fs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// treeExploration mirrors harness.LongRun's configurations: the shipped
// microrv32 against the VP ISS, or the clean pipecore against the fixed ISS
// with SYSTEM opcodes blocked. maxPaths 0 explores to exhaustion.
func treeExploration(kind cosim.CoreKind, limit int, search core.SearchStrategy, seed int64, maxPaths int) *exploration {
	cfg := cosim.Config{InstrLimit: limit, NumSymbolicRegs: 2}
	if kind == cosim.CorePipecore {
		cfg.DUTCore = cosim.CorePipecore
		cfg.ISS = iss.FixedConfig()
		cfg.Pipe = pipecore.Config{}
		cfg.Filter = cosim.BlockSystemInstructions
	} else {
		cfg.ISS = iss.VPConfig()
		cfg.Core = microrv32.ShippedConfig()
	}
	name := fmt.Sprintf("%s-l%d", kind, limit)
	if search == core.SearchRandom {
		name += fmt.Sprintf("-random-s%d-n%d", seed, maxPaths)
	}
	return &exploration{
		name: name,
		cfg:  cfg,
		opts: core.Options{GenerateTests: true, Search: search, Seed: seed, MaxPaths: maxPaths},
		tree: true,
	}
}

// cellExploration mirrors one harness.RunTable2 cell: the clean core plus a
// single injected fault against the fixed ISS, SYSTEM opcodes blocked,
// stopping on the first mismatch.
func cellExploration(kind cosim.CoreKind, f faults.Fault, limit int) exploration {
	cfg := cosim.Config{
		ISS:        iss.FixedConfig(),
		Filter:     cosim.BlockSystemInstructions,
		InstrLimit: limit,
		DUTCore:    kind,
	}
	if kind == cosim.CorePipecore {
		cfg.Pipe = pipecore.Config{Faults: faults.Only(f)}
	} else {
		c := microrv32.FixedConfig()
		c.Faults = faults.Only(f)
		cfg.Core = c
	}
	return exploration{
		name: fmt.Sprintf("cell-%s-%s-l%d", kind, f, limit),
		cfg:  cfg,
		opts: core.Options{StopOnFirstFinding: true, MaxTime: cellBudget},
	}
}
