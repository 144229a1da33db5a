package main

import (
	"sort"
	"time"

	"symriscv/internal/obs"
)

// metricDef is the one definition of a reported metric. The benchmark
// prints exactly these names; BENCHMARK.json lists the same names and units.
type metricDef struct {
	name, unit, def string
}

// endToEnd are the metrics a campaign user sees, measured with tracing off.
// A run reports the median over its repetitions of each.
var endToEnd = []metricDef{
	{"setup_s", "s", "median over several fresh benchmark processes of the time from spawning the process to its being ready for the first timed exploration (workload built)"},
	{"wall_s", "s", "wall time of one repetition of the workload's timed calls; the work is fixed"},
	{"paths_per_s", "1/s", "reported paths (completed + partial) of the tree legs divided by their wall time; on bug-hunt, which has no tree leg, over its cells"},
	{"ttb_p50_s", "s", "median over the fault cells of each cell's time to its first mismatch, the cell's own median over repetitions; on a workload without cells, over the tree legs that find a mismatch (exhaust-l1 and deep-l2: microrv32), timed to the end of the first mismatching path"},
	{"peak_heap_mb", "MB", "highest Go heap in use (runtime/metrics /memory/classes/heap/objects:bytes, sampled every 2 ms) during a repetition"},
}

// perLayer are the traced run's metrics, summed over the workload's
// explorations in one traced repetition (medians over traced repetitions
// for the times). Layers without a span today (the bit-blast/CDCL split,
// term construction, cosim bus service) report counts only.
var perLayer = []metricDef{
	{"core.paths_executed", "count", "path spans, one per path a worker executed, including paths parexplore's canonical cut discards"},
	{"core.engine_queries", "count", "engine-issued solver queries of the reported paths, core.Stats.SolverQueries: every feasibility or model query, whether the query cache or the SAT core answered it, including the replayed-prefix queries a fork resume skips but still counts"},
	{"core.path_ms_p50", "ms", "median path span duration (inclusive of everything the path ran)"},
	{"core.path_ms_p99", "ms", "99th percentile path span duration"},
	{"core.path_cost_drift", "ratio", "per exploration of at least 20 paths, the mean path span duration of the last tenth of paths (start order) over that of the first tenth; the median across explorations"},
	{"core.path_self_s", "s", "self time of path spans: the path minus the rtl-step, iss-step, voter-compare, cache-probe and solver-check spans nested in it (engine bookkeeping, replay, cosim bus service)"},
	{"core.explore_self_s", "s", "self time of one-worker explore spans: scheduling and report assembly outside any path span (at two workers the orchestrator's explore span only waits, so it is left out)"},
	{"core.fork_resumes", "count", "scheduled paths resumed from a fork-point checkpoint instead of replayed, core.Stats.ForkResumes"},
	{"core.replay_events_saved", "count", "prefix decision events those resumes did not re-execute, core.Stats.ReplayEventsSaved"},
	{"querycache.probes", "count", "cache-probe spans: feasibility queries entering the elimination pipeline"},
	{"querycache.eliminated_ratio", "ratio", "executed queries the cache answered without the SAT core (stack, exact, subset-sat, superset-unsat hits) divided by those plus solver.checks; equal to eliminated over core.engine_queries only where no resume skips queries and no path is discarded (exhaust-l1)"},
	{"querycache.superset_unsat_hits", "count", "queries answered unsat as a superset of a known unsat core"},
	{"querycache.stack_hits", "count", "queries answered sat by a stacked path model"},
	{"querycache.self_s", "s", "self time of cache-probe spans: the probe minus the solver-checks it falls through to"},
	{"solver.checks", "count", "solver-facade Check/CheckCore calls, the queries that reach the SAT core (core.Stats.CDCLQueries). Not obs cache.cdcl, which counts only the cache's feasibility pass-throughs, and not the CDCL column of symv bench, which is the same facade count taken from a different exploration"},
	{"solver.check_s", "s", "time in solver-check spans: bit-blasting the assumptions plus CDCL search (no span splits the two)"},
	{"solver.us_per_check", "us", "solver.check_s divided by the number of solver-check spans"},
	{"sat.propagations", "count", "CDCL unit propagations, summed over every solver"},
	{"sat.decisions", "count", "CDCL decisions"},
	{"sat.conflicts", "count", "CDCL conflicts"},
	{"sat.vars", "count", "SAT variables of the largest solver context (gauge, max over explorations)"},
	{"smt.terms", "count", "hash-consed terms of the largest term context (gauge, max over explorations); term construction has no span"},
	{"smt.rewrite_hits", "count", "extended term-rewrite applications"},
	{"rtl.cycles", "count", "DUT clock cycles over the reported paths, core.Stats.Cycles"},
	{"rtl.self_s", "s", "self time of rtl-step spans: the DUT step minus the cache-probes its branches open"},
	{"rtl.us_per_cycle", "us", "rtl.self_s divided by rtl.cycles; at two workers rtl.self_s includes discarded paths while rtl.cycles counts reported ones, so the ratio also carries parexplore's waste"},
	{"iss.steps", "count", "iss-step spans: reference-model instruction steps"},
	{"iss.self_s", "s", "self time of iss-step spans"},
	{"rvfi.compares", "count", "voter-compare spans: rvfi checker comparisons of one retirement"},
	{"rvfi.mismatches", "count", "findings: paths ending in an rvfi mismatch"},
	{"rvfi.self_s", "s", "self time of voter-compare spans, including witness extraction on a mismatch"},
	{"parexplore.kept_ratio", "ratio", "reported paths (core.Stats.Paths) divided by core.paths_executed; 1 at one worker, below 1 when bounded sharding discards work"},
	{"parexplore.busy_frac", "ratio", "path-span time summed over workers divided by exploration wall time times workers"},
	{"runtime.alloc_mb", "MB", "bytes allocated during one untraced repetition (runtime/metrics /gc/heap/allocs:bytes)"},
	{"runtime.gc_cycles", "count", "GC cycles completed during one untraced repetition"},
	{"bench.trace_overhead", "ratio", "median traced repetition wall time divided by median untraced repetition wall time"},
	{"bench.self_s", "s", "the benchmark's own spans: call wall time minus the explore span it contains (explorer construction, harness wrapping)"},
}

// layerMetrics computes the per-layer metrics of one traced repetition from
// its results, which carry reports and trace digests.
func layerMetrics(rs []result, ds []*digest) map[string]float64 {
	m := map[string]float64{}
	var paths []time.Duration
	var drifts []float64
	var busy, wallWorkers time.Duration
	var reported float64
	for i, r := range rs {
		d := ds[i]
		s := r.report.Stats
		m["core.engine_queries"] += float64(s.SolverQueries)
		m["core.fork_resumes"] += float64(s.ForkResumes)
		m["core.replay_events_saved"] += float64(s.ReplayEventsSaved)
		m["querycache.superset_unsat_hits"] += float64(s.Cache.SupersetUnsat)
		m["querycache.stack_hits"] += float64(s.Cache.StackHits)
		m["querycache.eliminated_ratio"] += float64(s.Cache.Eliminated()) // ratio taken below
		m["solver.checks"] += float64(s.CDCLQueries)
		m["sat.propagations"] += float64(s.SAT.Propagations)
		m["sat.decisions"] += float64(s.SAT.Decisions)
		m["sat.conflicts"] += float64(s.SAT.Conflicts)
		m["sat.vars"] = max(m["sat.vars"], float64(s.SATVars))
		m["smt.terms"] = max(m["smt.terms"], float64(s.TermCount))
		m["smt.rewrite_hits"] += float64(s.RewriteHits)
		m["rtl.cycles"] += float64(s.Cycles)
		m["rvfi.mismatches"] += float64(len(r.report.Findings))
		reported += float64(s.Paths)

		m["core.paths_executed"] += float64(d.count[obs.PhasePath])
		m["core.path_self_s"] += d.self[obs.PhasePath].Seconds()
		if r.workers == 1 {
			m["core.explore_self_s"] += d.self[obs.PhaseExplore].Seconds()
		}
		m["querycache.probes"] += float64(d.count[obs.PhaseCacheProbe])
		m["querycache.self_s"] += d.self[obs.PhaseCacheProbe].Seconds()
		m["solver.check_s"] += d.self[obs.PhaseSolverCheck].Seconds()
		m["solver.us_per_check"] += float64(d.count[obs.PhaseSolverCheck]) // ratio taken below
		m["rtl.self_s"] += d.self[obs.PhaseRTLStep].Seconds()
		m["iss.steps"] += float64(d.count[obs.PhaseISSStep])
		m["iss.self_s"] += d.self[obs.PhaseISSStep].Seconds()
		m["rvfi.compares"] += float64(d.count[obs.PhaseVoterCompare])
		m["rvfi.self_s"] += d.self[obs.PhaseVoterCompare].Seconds()
		m["bench.self_s"] += (r.wall - d.exploreDur).Seconds()

		paths = append(paths, d.paths...)
		for _, p := range d.paths {
			busy += p
		}
		wallWorkers += r.wall * time.Duration(r.workers)
		if x, ok := d.drift(); ok {
			drifts = append(drifts, x)
		}
	}
	elim := m["querycache.eliminated_ratio"]
	m["querycache.eliminated_ratio"] = ratio(elim, elim+m["solver.checks"])
	m["solver.us_per_check"] = ratio(m["solver.check_s"]*1e6, m["solver.us_per_check"])
	m["rtl.us_per_cycle"] = ratio(m["rtl.self_s"]*1e6, m["rtl.cycles"])
	m["parexplore.kept_ratio"] = ratio(reported, m["core.paths_executed"])
	m["parexplore.busy_frac"] = ratio(busy.Seconds(), wallWorkers.Seconds())
	sort.Slice(paths, func(i, j int) bool { return paths[i] < paths[j] })
	m["core.path_ms_p50"] = quantile(paths, 0.50).Seconds() * 1e3
	m["core.path_ms_p99"] = quantile(paths, 0.99).Seconds() * 1e3
	m["core.path_cost_drift"] = median(drifts)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// median returns the middle value, or the mean of the two middle values, of
// xs; 0 for none.
func median[T ~int64 | ~float64](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
