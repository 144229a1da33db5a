package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/cosim"
	"symriscv/internal/harness"
	"symriscv/internal/obs"
	"symriscv/internal/parexplore"
)

// result is one exploration as the benchmark saw it from outside.
type result struct {
	exp  exploration
	wall time.Duration // the call's wall time (a cell: harness.Table2Cell.Time)
	// ttb is the time from the call to the end of the first finding's
	// path; found reports whether there was one. Only timed calls set them.
	ttb   time.Duration
	found bool
	det   det
	// cellOnly marks fields taken from a harness.Table2Cell, which lacks
	// the started-path, engine-query and exhaustion fields.
	cellOnly bool
	workers  int
	report   *core.Report // nil for harness.RunTable2 cells
	trace    *bytes.Buffer
}

// runTimed makes the end-to-end calls of one part: the public entry points
// a campaign user reaches through the symv commands.
func runTimed(p part) []result {
	if p.tree != nil {
		if p.workers > 1 {
			return []result{runLongRun(*p.tree, p.workers)}
		}
		return []result{runWithFirstFinding(*p.tree)}
	}
	t2 := harness.RunTable2(harness.Table2Options{
		Common: harness.Common{Workers: p.workers, Core: p.core},
		Faults: p.faults,
		Limits: p.limits,
	})
	exps := p.explorations()
	out := make([]result, 0, len(exps))
	i := 0
	for _, row := range t2.Rows {
		for _, l := range p.limits {
			c := row.Cells[l]
			out = append(out, result{
				exp:   exps[i],
				wall:  c.Time,
				ttb:   c.Time,
				found: c.Found,
				det: det{
					Completed: c.Paths, Partial: c.Partial, Instructions: c.Instr,
					Findings: boolInt(c.Found),
				},
				cellOnly: true,
				workers:  p.workers,
			})
			i++
		}
	}
	return out
}

// runWithFirstFinding explores at one worker, timing the first finding
// through the Progress hook: Progress runs as each path starts, so a rise
// in Partial marks the end of the path before. Resumed paths bypass the
// RunFunc, which is why the hook, not a RunFunc wrapper, does the timing.
func runWithFirstFinding(e exploration) result {
	partialAt := map[int]time.Duration{}
	lastPartial := 0
	opts := e.opts
	opts.ProgressEvery = 1
	t0 := time.Now()
	opts.Progress = func(s core.Stats) {
		if s.Partial > lastPartial {
			lastPartial = s.Partial
			partialAt[s.Paths-2] = time.Since(t0)
		}
	}
	rep := core.NewExplorer(cosim.RunFunc(e.cfg)).Explore(opts)
	wall := time.Since(t0)
	r := result{exp: e, wall: wall, det: detOf(rep), workers: 1, report: rep}
	if len(rep.Findings) > 0 {
		r.found = true
		r.ttb = wall // the finding was the exploration's last path
		if at, ok := partialAt[rep.Findings[0].Path]; ok {
			r.ttb = at
		}
	}
	return r
}

func runLongRun(e exploration, workers int) result {
	t0 := time.Now()
	lr := harness.LongRun(harness.LongRunOptions{
		Common:     harness.Common{Workers: workers, Core: e.cfg.DUTCore},
		InstrLimit: e.cfg.InstrLimit,
		NumRegs:    e.cfg.NumSymbolicRegs,
	})
	return result{exp: e, wall: time.Since(t0), det: detOf(lr.Report), workers: workers, report: lr.Report}
}

// runDirect explores through core.NewExplorer (one worker) or
// parexplore.Explore, optionally with an obs.Recorder whose JSONL trace is
// kept in memory for digestTrace. The traced run and the witness check use
// it because it returns the whole report.
func runDirect(e exploration, workers int, traced bool) result {
	opts := e.opts
	var rec *obs.Recorder
	var buf *bytes.Buffer
	if traced {
		buf = &bytes.Buffer{}
		rec = obs.New(obs.Options{Trace: buf, Label: "perfbench " + e.name})
		opts.Obs = rec
	}
	t0 := time.Now()
	var rep *core.Report
	if workers > 1 {
		rep = parexplore.Explore(cosim.RunFunc(e.cfg), opts, workers)
	} else {
		rep = core.NewExplorer(cosim.RunFunc(e.cfg)).Explore(opts)
	}
	wall := time.Since(t0)
	if err := rec.Close(); err != nil {
		panic(fmt.Sprintf("closing the in-memory trace: %v", err)) // a bytes.Buffer write cannot fail
	}
	return result{exp: e, wall: wall, det: detOf(rep), workers: workers, report: rep, trace: buf}
}

// replayFindings re-runs every finding's witness through cosim.Replay and
// returns the first witness, in path order, that fails to reproduce a
// mismatch.
func replayFindings(r result) error {
	fs := r.report.Findings
	errs := make([]error, len(fs))
	inParallel(len(fs), func(i int) {
		m, err := cosim.Replay(r.exp.cfg, fs[i].Inputs)
		switch {
		case err != nil:
			errs[i] = fmt.Errorf("%s path %d: replay: %v", r.exp.name, fs[i].Path, err)
		case m == nil:
			errs[i] = fmt.Errorf("%s path %d: witness %v reproduces no mismatch", r.exp.name, fs[i].Path, fs[i].Inputs)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyWorkers is how many untimed checks (replays, cell re-runs) run at
// once; each owns its explorer, so they are independent.
const verifyWorkers = 2

// inParallel calls f(0..n-1) on verifyWorkers goroutines and returns when
// every call has.
func inParallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < verifyWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
