package core

import (
	"symriscv/internal/obs"
	"symriscv/internal/querycache"
	"symriscv/internal/solver"
)

// Registry names for the absorbed exploration counters. The explore.*
// family mirrors the deterministic Stats fields, solver.* the SAT facade,
// cache.* the query-elimination hit kinds, rewrite.* the term rewriter.
// smt.terms and sat.vars are gauges (per-context sizes, merged by max
// across workers).
const (
	CtrPaths           = "explore.paths"
	CtrCompleted       = "explore.completed"
	CtrPartial         = "explore.partial"
	CtrInfeasible      = "explore.infeasible"
	CtrInstructions    = "explore.instructions"
	CtrCycles          = "explore.cycles"
	CtrBranches        = "explore.branches"
	CtrConcretizations = "explore.concretizations"
	CtrQueries         = "explore.queries"
	// CtrPathsExecuted counts every path a parallel exploration's workers
	// ran, including paths past the canonical cut. Telemetry outside the
	// deterministic report contract, like Stats.CDCLQueries; only
	// parexplore publishes it.
	CtrPathsExecuted = "explore.paths_executed"
	// CtrHandoffs counts the subtrees parallel workers donated to starved
	// workers. A donated subtree replays its prefix instead of resuming
	// from a fork point. Telemetry, published by parexplore only.
	CtrHandoffs = "explore.handoffs"

	CtrSolverChecks  = "solver.checks"
	CtrSolverSat     = "solver.sat"
	CtrSolverUnsat   = "solver.unsat"
	CtrSolverUnknown = "solver.unknown"

	CtrCacheQueries       = "cache.queries"
	CtrCacheStackHits     = "cache.stack_hits"
	CtrCacheExactHits     = "cache.exact_hits"
	CtrCacheSubsetSat     = "cache.subset_sat"
	CtrCacheSupersetUnsat = "cache.superset_unsat"
	CtrCacheCDCL          = "cache.cdcl"
	CtrCacheModelQueries  = "cache.model_queries"
	CtrCacheSliced        = "cache.sliced"
	CtrCacheSlicedDropped = "cache.sliced_dropped"
	CtrCacheEliminated    = "cache.eliminated"
	CtrCacheStoreHits     = "cache.store_hits"

	CtrRewriteHits = "rewrite.hits"

	CtrForkSnapshots     = "fork.snapshots"
	CtrForkResumes       = "fork.resumes"
	CtrReplayEventsSaved = "replay.events-saved"

	GaugeTerms   = "smt.terms"
	GaugeSATVars = "sat.vars"
)

// publishObs absorbs one exploration's scattered counters — the merged
// Stats, the solver facade and the query-cache hit kinds — into the
// handle's registry shard. The caller flushes. Nil-safe via the handle.
func publishObs(h *obs.Handle, st Stats, ss solver.Stats) {
	PublishExploreObs(h, st)
	publishBackendObs(h, ss, st.Cache, st.RewriteHits, st.TermCount, st.SATVars)
	publishForkObs(h, st.ForkSnapshots, st.ForkResumes, st.ReplayEventsSaved)
}

// publishForkObs absorbs the fork-point checkpointing telemetry, published
// once per worker (the sequential explorer's merged stats, or each shard's
// own counters via Shard.PublishObsCounters).
func publishForkObs(h *obs.Handle, snapshots, resumes, eventsSaved uint64) {
	if h == nil {
		return
	}
	h.Add(CtrForkSnapshots, snapshots)
	h.Add(CtrForkResumes, resumes)
	h.Add(CtrReplayEventsSaved, eventsSaved)
}

// PublishExploreObs absorbs the deterministic Stats fields of a finished
// exploration (the explore.* counter family) into the handle's registry
// shard; the caller flushes. The parallel orchestrator publishes its
// merged report through this, while each shard publishes its own backend
// counters via Shard.PublishObsCounters.
func PublishExploreObs(h *obs.Handle, st Stats) {
	if h == nil {
		return
	}
	h.Add(CtrPaths, uint64(st.Paths))
	h.Add(CtrCompleted, uint64(st.Completed))
	h.Add(CtrPartial, uint64(st.Partial))
	h.Add(CtrInfeasible, uint64(st.Infeasible))
	h.Add(CtrInstructions, st.Instructions)
	h.Add(CtrCycles, st.Cycles)
	h.Add(CtrBranches, st.Branches)
	h.Add(CtrConcretizations, st.Concretizations)
	h.Add(CtrQueries, st.SolverQueries)
}

// publishBackendObs absorbs the solver-facade, query-cache and rewriter
// counters plus the context-size gauges — the per-backend share of the
// registry, published once per solver context (the sequential explorer's,
// or each parallel shard's).
func publishBackendObs(h *obs.Handle, ss solver.Stats, cs querycache.Stats, rewrites uint64, terms, satVars int) {
	if h == nil {
		return
	}
	h.Add(CtrSolverChecks, ss.Checks)
	h.Add(CtrSolverSat, ss.SatAns)
	h.Add(CtrSolverUnsat, ss.UnsatAns)
	h.Add(CtrSolverUnknown, ss.UnknownAns)

	h.Add(CtrCacheQueries, cs.Queries)
	h.Add(CtrCacheStackHits, cs.StackHits)
	h.Add(CtrCacheExactHits, cs.ExactHits)
	h.Add(CtrCacheSubsetSat, cs.SubsetSat)
	h.Add(CtrCacheSupersetUnsat, cs.SupersetUnsat)
	h.Add(CtrCacheCDCL, cs.CDCL)
	h.Add(CtrCacheModelQueries, cs.ModelQueries)
	h.Add(CtrCacheSliced, cs.SlicedQueries)
	h.Add(CtrCacheSlicedDropped, cs.SlicedDropped)
	h.Add(CtrCacheEliminated, cs.Eliminated())
	h.Add(CtrCacheStoreHits, cs.StoreHits)

	h.Add(CtrRewriteHits, rewrites)

	h.Gauge(GaugeTerms, uint64(terms))
	h.Gauge(GaugeSATVars, uint64(satVars))
}
