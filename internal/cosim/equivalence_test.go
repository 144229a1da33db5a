package cosim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/iss"
	"symriscv/internal/parexplore"
	"symriscv/internal/pipecore"
	"symriscv/internal/rvfi"
)

// deterministic is the slice of a Stats that the report contract pins
// independent of caching and scheduling.
type deterministic struct {
	Paths, Completed, Partial, Infeasible    int
	Instructions, Cycles                     uint64
	Branches, Concretizations, SolverQueries uint64
}

func detOf(s core.Stats) deterministic {
	return deterministic{
		Paths: s.Paths, Completed: s.Completed, Partial: s.Partial,
		Infeasible: s.Infeasible, Instructions: s.Instructions,
		Cycles: s.Cycles, Branches: s.Branches,
		Concretizations: s.Concretizations, SolverQueries: s.SolverQueries,
	}
}

// findingClass maps a finding error to its model-independent identity: the
// mismatch kind for voter findings, the full text otherwise.
func findingClass(t *testing.T, err error) string {
	t.Helper()
	var m *rvfi.Mismatch
	if errors.As(err, &m) {
		return m.Kind.String()
	}
	return err.Error()
}

// requireSameReport compares the deterministic report surface of two runs
// of the same scenario: stats, findings (path index and mismatch class) and
// test-vector path indices must be byte-equivalent.
func requireSameReport(t *testing.T, a, b *core.Report) {
	t.Helper()
	if d1, d2 := detOf(a.Stats), detOf(b.Stats); d1 != d2 {
		t.Fatalf("deterministic stats differ:\n a: %+v\n b: %+v", d1, d2)
	}
	if a.Exhausted != b.Exhausted {
		t.Fatalf("exhausted differs: a %v, b %v", a.Exhausted, b.Exhausted)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: a %d, b %d", len(a.Findings), len(b.Findings))
	}
	// Witness values are any-model and excluded from the contract: caching
	// and sharding change which queries reach the SAT core, so the
	// model-derived mismatch detail may differ. Path index and mismatch
	// class are deterministic.
	for i := range a.Findings {
		f1, f2 := a.Findings[i], b.Findings[i]
		if f1.Path != f2.Path || findingClass(t, f1.Err) != findingClass(t, f2.Err) {
			t.Fatalf("finding %d differs:\n a: path=%d %v\n b: path=%d %v",
				i, f1.Path, f1.Err, f2.Path, f2.Err)
		}
	}
	if len(a.TestVectors) != len(b.TestVectors) {
		t.Fatalf("test-vector counts differ: a %d, b %d", len(a.TestVectors), len(b.TestVectors))
	}
	for i := range a.TestVectors {
		if a.TestVectors[i].Path != b.TestVectors[i].Path {
			t.Fatalf("test vector %d path differs: a %d, b %d",
				i, a.TestVectors[i].Path, b.TestVectors[i].Path)
		}
	}
}

// TestForkReplayEquivalence pins replay-based forking at the co-simulation
// level: for representative scenarios (both DUTs, both instruction limits,
// symbolic interrupts) the report of the scenario's own cache setting at one
// worker is byte-equivalent to the report with the cache flipped and to the
// report at two workers, where handed-off prefixes replay in another
// worker's term context. The pipecore scenarios compare cache settings
// only: a fresh concretization reads the worker's solver model, so
// pipecore's next-PC values, and with them its query counts, still depend
// on the worker count (ROADMAP, "Worker-count-independent concretization").
func TestForkReplayEquivalence(t *testing.T) {
	pipe := func() Config {
		return Config{
			ISS:    iss.FixedConfig(),
			Filter: BlockSystemInstructions,
			NewDUT: func(eng *core.Engine) DUT {
				return pipecore.New(eng, pipecore.Config{})
			},
		}
	}
	cases := []struct {
		name    string
		cfg     func() Config
		opts    core.Options
		limit   int
		noCache bool
		// oneWorker leaves out the two-worker leg (see above).
		oneWorker bool
	}{
		{name: "limit1", cfg: matchedConfig, limit: 1,
			opts: core.Options{MaxPaths: 120}},
		{name: "limit2", cfg: matchedConfig, limit: 2,
			opts: core.Options{MaxPaths: 120}},
		// A nocache scenario takes the cache-off run as its reference, so
		// its two-worker leg runs with the cache off.
		{name: "limit2-nocache", cfg: matchedConfig, limit: 2, noCache: true,
			opts: core.Options{MaxPaths: 80}},
		{name: "irq", cfg: func() Config {
			cfg := matchedConfig()
			cfg.SymbolicInterrupts = true
			return cfg
		}, limit: 1, opts: core.Options{MaxPaths: 80}},
		{name: "pipecore", cfg: pipe, limit: 1, oneWorker: true,
			opts: core.Options{MaxPaths: 100, GenerateTests: true}},
		{name: "pipecore-irq", cfg: func() Config {
			cfg := pipe()
			cfg.SymbolicInterrupts = true
			cfg.StartPC = 0x100
			return cfg
		}, limit: 1, oneWorker: true, opts: core.Options{MaxPaths: 80}},
		{name: "pipecore-irq-nocache", cfg: func() Config {
			cfg := pipe()
			cfg.SymbolicInterrupts = true
			cfg.StartPC = 0x100
			return cfg
		}, limit: 1, noCache: true, oneWorker: true, opts: core.Options{MaxPaths: 80}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.InstrLimit = tc.limit
			run := RunFunc(cfg)
			leg := func(noCache bool, workers int) *core.Report {
				o := tc.opts
				o.MaxTime = 120 * time.Second
				o.NoQueryCache = noCache
				if workers > 1 {
					return parexplore.Explore(run, o, workers)
				}
				return core.NewExplorer(run).Explore(o)
			}
			ref := leg(tc.noCache, 1)
			check := func(noCache bool, workers int) {
				t.Run(fmt.Sprintf("cache=%v/w%d", !noCache, workers), func(t *testing.T) {
					requireSameReport(t, ref, leg(noCache, workers))
				})
			}
			check(!tc.noCache, 1)
			if !tc.oneWorker {
				check(tc.noCache, 2)
			}
		})
	}
}

// TestInterruptCacheEquivalence pins the other toggle of the determinism
// contract for interrupt delivery: on both cores, the deterministic report
// surface of an interrupt-enabled run must be identical with the query cache
// on and off.
func TestInterruptCacheEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{name: "microrv32", cfg: matchedConfig},
		{name: "pipecore", cfg: func() Config {
			return Config{
				ISS:     iss.FixedConfig(),
				Filter:  BlockSystemInstructions,
				DUTCore: CorePipecore,
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.SymbolicInterrupts = true
			cfg.StartPC = 0x100
			cfg.InstrLimit = 1
			run := RunFunc(cfg)
			leg := func(noCache bool) *core.Report {
				return core.NewExplorer(run).Explore(core.Options{
					MaxPaths: 60, MaxTime: 120 * time.Second, NoQueryCache: noCache,
				})
			}
			requireSameReport(t, leg(false), leg(true))
		})
	}
}
