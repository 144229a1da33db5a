package core

import (
	"fmt"
	"testing"

	"symriscv/internal/smt"
)

// forkProgram is a checkpointable branchProgram: each bit is decided in its
// own "cycle" with an Engine.Checkpoint at the top, mirroring the
// co-simulation loop's quiescent points. The capture closure freezes the loop
// position and accumulated pattern; resume continues the loop on the sibling's
// engine from the divergence point.
func forkProgram(bits int, collect func(pattern uint64)) RunFunc {
	done := func(*Engine, *smt.Term, uint64) error { return nil }
	if collect != nil {
		done = func(_ *Engine, _ *smt.Term, pat uint64) error { collect(pat); return nil }
	}
	return func(e *Engine) error {
		v := e.MakeSymbolic("v", 8)
		return forkLoop(e, v, 0, 0, bits, done)
	}
}

// forkLoop is the checkpointed cycle loop; done is the program epilogue and
// must be part of the capture closure — a resumed sibling re-enters the loop
// mid-way and still has to run everything after it.
func forkLoop(e *Engine, v *smt.Term, bit int, pat uint64, bits int, done func(*Engine, *smt.Term, uint64) error) error {
	ctx := e.Context()
	for ; bit < bits; bit++ {
		b, p := bit, pat
		e.Checkpoint(func() ResumeFunc {
			return func(e2 *Engine) error { return forkLoop(e2, v, b, p, bits, done) }
		})
		if e.Branch(ctx.Eq(ctx.Extract(v, bit, bit), ctx.BV(1, 1))) {
			pat |= 1 << bit
		}
	}
	return done(e, v, pat)
}

// TestForkResumeFullTree checks a checkpointable program still enumerates the
// complete tree exactly once with fork checkpointing on, and that siblings
// really did resume from snapshots rather than replay.
func TestForkResumeFullTree(t *testing.T) {
	seen := map[uint64]int{}
	rep := NewExplorer(forkProgram(4, func(p uint64) { seen[p]++ })).Explore(Options{})
	if rep.Stats.Paths != 16 || len(seen) != 16 {
		t.Fatalf("paths=%d distinct=%d, want 16/16", rep.Stats.Paths, len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("pattern %04b executed %d times", p, n)
		}
	}
	if rep.Stats.ForkResumes == 0 {
		t.Fatal("no sibling resumed from a checkpoint")
	}
	if rep.Stats.ForkSnapshots == 0 {
		t.Fatal("no snapshots captured")
	}
	if rep.Stats.ReplayEventsSaved == 0 {
		t.Fatal("resumes saved no replay events")
	}
}

// TestForkReplayEquivalence pins the determinism contract of fork-point
// checkpointing at the core level: the same exploration, fork on vs off,
// cache on vs off, across search strategies, reports identical deterministic
// statistics and identical path sets.
func TestForkReplayEquivalence(t *testing.T) {
	strategies := []struct {
		name string
		s    SearchStrategy
	}{{"dfs", SearchDFS}, {"bfs", SearchBFS}, {"random", SearchRandom}}
	for _, st := range strategies {
		for _, noCache := range []bool{false, true} {
			name := fmt.Sprintf("%s/cache=%v", st.name, !noCache)
			t.Run(name, func(t *testing.T) {
				var legs [2]*Report
				var sets [2]map[uint64]int
				for i, noFork := range []bool{false, true} {
					seen := map[uint64]int{}
					legs[i] = NewExplorer(forkProgram(5, func(p uint64) { seen[p]++ })).Explore(Options{
						Search:       st.s,
						Seed:         7,
						NoFork:       noFork,
						NoQueryCache: noCache,
					})
					sets[i] = seen
				}
				on, off := legs[0], legs[1]
				if on.Stats.Paths != off.Stats.Paths ||
					on.Stats.Completed != off.Stats.Completed ||
					on.Stats.Partial != off.Stats.Partial ||
					on.Stats.Infeasible != off.Stats.Infeasible ||
					on.Stats.SolverQueries != off.Stats.SolverQueries {
					t.Fatalf("deterministic stats diverge:\nfork on:  %v\nfork off: %v", on.Stats, off.Stats)
				}
				if len(sets[0]) != 32 || len(sets[1]) != 32 {
					t.Fatalf("pattern sets incomplete: fork on %d, fork off %d", len(sets[0]), len(sets[1]))
				}
				if on.Stats.ForkResumes == 0 {
					t.Fatal("fork-on leg resumed nothing")
				}
				if off.Stats.ForkResumes != 0 || off.Stats.ForkSnapshots != 0 {
					t.Fatalf("fork-off leg reports fork activity: %+v", off.Stats)
				}
			})
		}
	}
}

// TestForkFindingsAndVectorsMatchReplay checks findings and test vectors
// survive the resume path unchanged: paths that error report the same finding
// at the same canonical path index, with the same witness inputs, fork on and
// off.
func TestForkFindingsAndVectorsMatch(t *testing.T) {
	// Error on one specific leaf so the finding's witness is pinned. The
	// epilogue rides inside the capture closure via the done continuation.
	done := func(e *Engine, v *smt.Term, _ uint64) error {
		if _, ok := e.FindWitness(e.Context().Eq(v, e.Context().BV(8, 0x0b))); ok {
			return fmt.Errorf("bad leaf")
		}
		return nil
	}
	prog := func(e *Engine) error {
		v := e.MakeSymbolic("v", 8)
		return forkLoop(e, v, 0, 0, 4, done)
	}
	var reps [2]*Report
	for i, noFork := range []bool{false, true} {
		reps[i] = NewExplorer(prog).Explore(Options{NoFork: noFork})
	}
	on, off := reps[0], reps[1]
	if len(on.Findings) != len(off.Findings) {
		t.Fatalf("finding counts differ: fork on %d, fork off %d", len(on.Findings), len(off.Findings))
	}
	for i := range on.Findings {
		a, b := on.Findings[i], off.Findings[i]
		if a.Path != b.Path || a.Err.Error() != b.Err.Error() {
			t.Fatalf("finding %d differs: on (path %d) %v, off (path %d) %v", i, a.Path, a.Err, b.Path, b.Err)
		}
	}
	if len(on.TestVectors) != len(off.TestVectors) {
		t.Fatalf("test vector counts differ: %d vs %d", len(on.TestVectors), len(off.TestVectors))
	}
	if on.Stats.SolverQueries != off.Stats.SolverQueries {
		t.Fatalf("query counts differ: %d vs %d", on.Stats.SolverQueries, off.Stats.SolverQueries)
	}
}

// TestForkDisabledUnderConflictBudget: under a solver conflict budget a
// replayed query could return Unknown and abort the path — an outcome resume
// would skip — so resumable must refuse and paths must replay.
func TestForkDisabledUnderConflictBudget(t *testing.T) {
	rep := NewExplorer(forkProgram(3, nil)).Explore(Options{SolverConflictBudget: 1 << 20})
	if rep.Stats.ForkResumes != 0 {
		t.Fatalf("resumed %d paths under a conflict budget", rep.Stats.ForkResumes)
	}
	if rep.Stats.Paths != 8 {
		t.Fatalf("paths = %d, want 8", rep.Stats.Paths)
	}
}

// TestForkPointerDroppedOnHandoff checks the portable prefix representation
// stays canonical: a fork point never survives export/import, so handed-off
// subtrees replay.
func TestForkPointerDroppedOnHandoff(t *testing.T) {
	s1 := NewShard(forkProgram(3, nil), ShardOptions{Search: SearchBFS})
	s1.AddPrefix(nil, "")
	if _, ok := s1.Step(); !ok {
		t.Fatal("seed step failed")
	}
	prefix, sig, ok := s1.Handoff()
	if !ok {
		t.Fatal("handoff failed")
	}
	s2 := NewShard(forkProgram(3, nil), ShardOptions{})
	s2.AddPrefix(prefix, sig)
	for _, n := range s2.w.frontier {
		if n.fork != nil {
			t.Fatal("imported frontier node carries a fork point")
		}
	}
	for s2.Pending() > 0 {
		if _, ok := s2.Step(); !ok {
			break
		}
	}
	snaps, resumes, _ := s2.ForkStats()
	if resumes == 0 && snaps == 0 {
		// The imported node itself must replay; its descendants may then
		// checkpoint and resume — which is the point of the fallback design.
		t.Log("imported subtree explored fully by replay")
	}
}

// TestAddPCDeduplicates pins the assumption-dedup satellite: assuming the
// same term twice adds one path constraint and one cache observation, leaving
// the conjunction unchanged.
func TestAddPCDeduplicates(t *testing.T) {
	x := NewExplorer(nil)
	var st Stats
	eng := newEngine(x.ctx, x.sol, nil, &st, nil)
	ctx := eng.Context()
	v := eng.MakeSymbolic("v", 8)
	c := ctx.Eq(v, ctx.BV(8, 3))
	eng.Assume(c)
	eng.Assume(c)
	if got := len(eng.pcs); got != 1 {
		t.Fatalf("pcs length = %d after duplicate Assume, want 1", got)
	}
	eng.Assume(ctx.Ne(v, ctx.BV(8, 9)))
	if got := len(eng.pcs); got != 2 {
		t.Fatalf("pcs length = %d, want 2", got)
	}
}

// TestWalkerPopOrderAcrossStrategies drives the walker frontier directly:
// DFS pops newest-first, BFS oldest-first, and the random strategy is
// deterministic for a fixed seed.
func TestWalkerPopOrderAcrossStrategies(t *testing.T) {
	build := func() (*walker, *Explorer, []*node) {
		x := NewExplorer(branchProgram(3, nil))
		wk := &walker{}
		wk.addRoot()
		n := wk.pop(SearchDFS, &pathRNG{})
		var st Stats
		eng := newEngine(x.ctx, x.sol, wk.materialize(n), &st, nil)
		if err, abort := runOne(x.run, eng); err != nil || abort != nil {
			t.Fatalf("run failed: %v / %v", err, abort)
		}
		wk.schedule(n, eng.fresh)
		nodes := append([]*node(nil), wk.frontier...)
		return wk, x, nodes
	}

	wk, _, nodes := build()
	if len(nodes) != 3 {
		t.Fatalf("frontier size = %d, want 3", len(nodes))
	}
	// DFS: deepest (most recently scheduled) sibling first.
	if got := wk.pop(SearchDFS, &pathRNG{}); got != nodes[len(nodes)-1] {
		t.Fatal("DFS did not pop the deepest sibling first")
	}

	wk2, _, nodes2 := build()
	if got := wk2.pop(SearchBFS, &pathRNG{}); got != nodes2[0] {
		t.Fatal("BFS did not pop the shallowest sibling first")
	}

	// Random: identical seeds pop identical orders.
	order := func(seed uint64) []int {
		wk, _, _ := build()
		rng := &pathRNG{state: seed}
		var got []int
		for wk.pending() > 0 {
			got = append(got, wk.pop(SearchRandom, rng).depth)
		}
		return got
	}
	a, b := order(42), order(42)
	if len(a) != len(b) {
		t.Fatalf("random pop counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("random pop order not deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

// TestWalkerMaterializeMatchesNaive cross-checks the parent-pointer
// materialization against a naive reconstruction that walks the parent chain.
func TestWalkerMaterializeMatchesNaive(t *testing.T) {
	x := NewExplorer(branchProgram(4, nil))
	wk := &walker{}
	wk.addRoot()
	var st Stats
	for rounds := 0; wk.pending() > 0 && rounds < 6; rounds++ {
		n := wk.pop(SearchBFS, &pathRNG{})
		naive := naiveMaterialize(n)
		got := wk.materialize(n)
		if len(got) != len(naive) {
			t.Fatalf("materialize length %d, naive %d", len(got), len(naive))
		}
		for i := range got {
			if got[i].dir != naive[i].dir || got[i].kind != naive[i].kind {
				t.Fatalf("event %d differs from naive reconstruction", i)
			}
		}
		eng := newEngine(x.ctx, x.sol, got, &st, nil)
		if err, abort := runOne(x.run, eng); err != nil || abort != nil {
			t.Fatalf("run failed: %v / %v", err, abort)
		}
		wk.schedule(n, eng.fresh)
	}
}

// naiveMaterialize reconstructs a node's decision prefix by walking parent
// pointers — the specification the scratch-buffer materialize must match.
func naiveMaterialize(n *node) []event {
	if n == nil {
		return nil
	}
	prefix := append([]event(nil), naiveMaterialize(n.parent)...)
	prefix = append(prefix, n.events[:n.take]...)
	if n.flip {
		prefix[len(prefix)-1].dir = !prefix[len(prefix)-1].dir
	}
	return prefix
}
