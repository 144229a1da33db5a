// Command perfbench is symriscv's campaign benchmark. It runs one workload
// in one process, times the public entry points a campaign user reaches
// (harness.LongRun, harness.RunTable2, core.NewExplorer(...).Explore,
// parexplore.Explore) from outside, gates every exploration's
// deterministic report fields, replays every finding's witness through
// cosim.Replay, and prints its metrics as one JSON line.
//
//	perfbench --workload exhaust-l1 --seed 1 --seconds 20 --trace 0
//
// --trace 0 repeats the untraced workload for --seconds and reports the
// end-to-end metrics. --trace 1 alternates untraced and traced repetitions
// and reports per-layer metrics computed from the obs JSONL trace. The
// workloads, and why each was chosen, are in workloads.go; every metric's
// definition is in metrics.go. run.sh builds the binary and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// deepTreeSeed seeds deep-l2's random-path search. The workload seed does
// not: at a fixed path count, the cost of a random-path tree varies more
// than twofold between search seeds, which would make every seed a
// different amount of work. --tree-seed picks a held-out tree for checking
// a claim by hand; only the default tree is pinned.
const deepTreeSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
}

// record accompanies every result: what was run, where, and how many
// samples each figure rests on.
type record struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	TreeSeed    int64       `json:"tree_seed"`
	Trace       int         `json:"trace"`
	Seconds     int         `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	Reps        int         `json:"reps"`
	TTBSamples  int         `json:"ttb_samples,omitempty"`
	FailedRatio float64     `json:"failed_ratio"`
	Errors      []string    `json:"errors,omitempty"`
	Notes       []string    `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed: orders the workload's calls")
	seconds := fs.Int("seconds", 10, "time to spend in timed repetitions (at least one repetition runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced repetitions")
	treeSeed := fs.Int64("tree-seed", deepTreeSeed, "deep-l2 random-path search seed (only the default is pinned)")
	probe := fs.Bool("setup-probe", false, "build the workload, print \"ready\" and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload NAME [--seed N] [--seconds N>=1] [--trace 0|1]")
		fs.Usage()
		return 2
	}
	w, err := newWorkload(*name, *seed, *treeSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *probe {
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	rec := record{Workload: *name, Seed: *seed, TreeSeed: *treeSeed, Trace: *trace, Seconds: *seconds}
	var setup time.Duration
	if *trace == 0 {
		if setup, err = measureSetup(*name, *seed, *treeSeed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	rec.Fingerprint = takeFingerprint()
	if note := committedBenchNote(rec.Fingerprint); note != "" {
		rec.Notes = append(rec.Notes, note)
	}
	logf("workload %s seed %d trace %d: %+v", *name, *seed, *trace, rec.Fingerprint)

	g := newGate()
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]float64
	if *trace == 0 {
		metrics = endToEndRun(w, budget, g, &rec)
		metrics["setup_s"] = setup.Seconds()
	} else {
		metrics = tracedRun(w, budget, g, &rec)
	}

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	out := output{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
		logf("%-32s %14.6g %s", d.name, metrics[d.name], d.unit)
	}
	rec.FailedRatio = ratio(float64(g.failed), float64(g.attempted))
	rec.Errors = g.errs
	logf("failed_ratio %g (%d of %d explorations)", rec.FailedRatio, g.failed, g.attempted)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// keepGoing reports whether another repetition fits: minReps always run,
// and another starts while the time spent plus half a typical repetition
// stays within the budget.
func keepGoing(walls []time.Duration, minReps int, budget time.Duration) bool {
	if len(walls) < minReps {
		return true
	}
	var spent time.Duration
	for _, d := range walls {
		spent += d
	}
	return spent+median(walls)/2 < budget
}

// endToEndRun repeats the workload's timed calls untraced, at least twice so
// that no figure rests on one sample, then checks the witnesses: every
// finding of each tree in the first repetition is replayed, and every
// Table II cell is re-run directly at one worker, gated on its full
// deterministic fields and replayed.
func endToEndRun(w *workload, budget time.Duration, g *gate, rec *record) map[string]float64 {
	started := time.Now()
	var walls []time.Duration
	var ppsVals, peakVals []float64
	ttb := map[string][]time.Duration{}
	var cells []exploration
	replayed := map[string]bool{}
	for keepGoing(walls, 2, budget) {
		runtime.GC()
		hp := startHeapPeak()
		t0 := time.Now()
		var rs []result
		for _, p := range w.parts {
			rs = append(rs, runTimed(p)...)
		}
		wall := time.Since(t0)
		peak := hp.end()
		walls = append(walls, wall)
		peakVals = append(peakVals, float64(peak)/(1<<20))

		var treePaths, cellPaths float64
		var treeWall, cellWall time.Duration
		hasCells := false
		for _, r := range rs {
			reported := float64(r.det.Completed + r.det.Partial)
			if r.exp.tree {
				treePaths += reported
				treeWall += r.wall
			} else {
				hasCells = true
				cellPaths += reported
				cellWall += r.wall
			}
		}
		if treeWall > 0 {
			ppsVals = append(ppsVals, treePaths/treeWall.Seconds())
		} else {
			ppsVals = append(ppsVals, cellPaths/cellWall.Seconds())
		}
		for _, r := range rs {
			// ttb samples come from the fault cells where the workload
			// has them, otherwise from the trees that find a mismatch.
			if r.found && r.exp.tree != hasCells {
				ttb[r.exp.name] = append(ttb[r.exp.name], r.ttb)
			}
			var extra error
			switch {
			case len(walls) > 1:
			case r.report == nil:
				cells = append(cells, r.exp)
			case !replayed[r.exp.name]:
				replayed[r.exp.name] = true
				extra = replayFindings(r)
			}
			g.check(r, extra)
		}
		logf("rep %d: wall %.3fs paths/s %.1f peak heap %.1f MB", len(walls), wall.Seconds(), ppsVals[len(ppsVals)-1], peakVals[len(peakVals)-1])
	}
	reruns := make([]result, len(cells))
	replays := make([]error, len(cells))
	inParallel(len(cells), func(i int) {
		reruns[i] = runDirect(cells[i], 1, false)
		replays[i] = replayFindings(reruns[i])
	})
	for i, r := range reruns {
		g.check(r, replays[i])
	}
	logf("witness check done at %.1fs", time.Since(started).Seconds())

	var perExp []time.Duration
	for _, ds := range ttb {
		perExp = append(perExp, median(ds))
		rec.TTBSamples += len(ds)
	}
	rec.Reps = len(walls)
	return map[string]float64{
		"wall_s":       median(walls).Seconds(),
		"paths_per_s":  median(ppsVals),
		"ttb_p50_s":    median(perExp).Seconds(),
		"peak_heap_mb": median(peakVals),
	}
}

// tracedRun alternates an untraced and a traced direct repetition of every
// exploration, and reports the per-layer metrics as medians over the traced
// repetitions. The self-time check runs on every traced exploration.
func tracedRun(w *workload, budget time.Duration, g *gate, rec *record) map[string]float64 {
	var walls []time.Duration // both kinds, for the budget
	var plain, traced []time.Duration
	var allocMB, gcs []float64
	layers := map[string][]float64{}
	for keepGoing(walls, 2, budget) { // two walls per pair: at least one pair
		runtime.GC()
		a0, c0 := allocCounters()
		var plainWall time.Duration
		for _, p := range w.parts {
			for _, e := range p.explorations() {
				r := runDirect(e, p.workers, false)
				plainWall += r.wall
				g.check(r, nil)
			}
		}
		plain = append(plain, plainWall)
		a1, c1 := allocCounters()
		allocMB = append(allocMB, float64(a1-a0)/(1<<20))
		gcs = append(gcs, float64(c1-c0))

		runtime.GC()
		var rs []result
		var ds []*digest
		var tracedWall time.Duration
		for _, p := range w.parts {
			for _, e := range p.explorations() {
				r := runDirect(e, p.workers, true)
				tracedWall += r.wall
				d, err := digestTrace(r.trace)
				if err == nil {
					err = d.checkSelfTime(r.wall)
				}
				if err != nil {
					err = fmt.Errorf("%s trace: %v", e.name, err)
					d = &digest{}
				}
				g.check(r, err)
				r.trace = nil
				rs = append(rs, r)
				ds = append(ds, d)
			}
		}
		traced = append(traced, tracedWall)
		for k, v := range layerMetrics(rs, ds) {
			layers[k] = append(layers[k], v)
		}
		walls = append(walls, plain[len(plain)-1], tracedWall)
		logf("pair %d: untraced %.3fs traced %.3fs", len(traced), plain[len(plain)-1].Seconds(), tracedWall.Seconds())
	}
	m := map[string]float64{}
	for k, vs := range layers {
		m[k] = median(vs)
	}
	m["runtime.alloc_mb"] = median(allocMB)
	m["runtime.gc_cycles"] = median(gcs)
	m["bench.trace_overhead"] = ratio(median(traced).Seconds(), median(plain).Seconds())
	rec.Reps = len(traced)
	return m
}
