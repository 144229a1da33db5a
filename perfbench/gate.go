package main

import (
	"fmt"

	"symriscv/internal/core"
)

// det holds an exploration's deterministic report fields: the same
// configuration and options give the same values at every worker count,
// with tracing on or off, on every host.
type det struct {
	Paths        int // paths started
	Completed    int
	Partial      int
	Instructions uint64
	Queries      uint64 // engine-issued solver queries (cache hits included)
	Findings     int
	Exhausted    bool
}

func detOf(rep *core.Report) det {
	s := rep.Stats
	return det{
		Paths: s.Paths, Completed: s.Completed, Partial: s.Partial,
		Instructions: s.Instructions, Queries: s.SolverQueries,
		Findings: len(rep.Findings), Exhausted: rep.Exhausted,
	}
}

func (d det) String() string {
	return fmt.Sprintf("{Paths: %d, Completed: %d, Partial: %d, Instructions: %d, Queries: %d, Findings: %d, Exhausted: %v}",
		d.Paths, d.Completed, d.Partial, d.Instructions, d.Queries, d.Findings, d.Exhausted)
}

// sameDet compares the fields both results carry; a harness.RunTable2
// cell carries only completed and partial paths, instructions and whether
// it found its fault.
func sameDet(a, b result) bool {
	if a.cellOnly || b.cellOnly {
		x, y := a.det, b.det
		return x.Completed == y.Completed && x.Partial == y.Partial &&
			x.Instructions == y.Instructions && x.Findings == y.Findings
	}
	return a.det == b.det
}

// pins are the deterministic fields of every exploration the workloads
// make, recorded from the code this benchmark was written against. Every
// Table II cell must find its fault (Findings 1) at the pinned path count.
// A deep-l2 tree seed other than the default has no pins; its explorations
// are checked against the first repetition instead.
var pins = map[string]det{
	"microrv32-l1":                 {Paths: 3647, Completed: 2420, Partial: 1227, Instructions: 7294, Queries: 34536, Findings: 1227, Exhausted: true},
	"pipecore-l1":                  {Paths: 1490, Completed: 1490, Partial: 0, Instructions: 2980, Queries: 17301, Findings: 0, Exhausted: true},
	"microrv32-l2-random-s1-n1200": {Paths: 1200, Completed: 1182, Partial: 18, Instructions: 4800, Queries: 7514, Findings: 18, Exhausted: false},
	"pipecore-l2-random-s1-n1200":  {Paths: 1200, Completed: 1200, Partial: 0, Instructions: 4800, Queries: 12785, Findings: 0, Exhausted: false},
	"cell-microrv32-E0-l1":         {Paths: 674, Completed: 673, Partial: 1, Instructions: 1348, Queries: 5751, Findings: 1, Exhausted: false},
	"cell-microrv32-E0-l2":         {Paths: 674, Completed: 673, Partial: 1, Instructions: 2696, Queries: 6429, Findings: 1, Exhausted: false},
	"cell-microrv32-E1-l1":         {Paths: 690, Completed: 689, Partial: 1, Instructions: 1380, Queries: 5891, Findings: 1, Exhausted: false},
	"cell-microrv32-E1-l2":         {Paths: 690, Completed: 689, Partial: 1, Instructions: 2760, Queries: 6585, Findings: 1, Exhausted: false},
	"cell-microrv32-E2-l1":         {Paths: 706, Completed: 705, Partial: 1, Instructions: 1412, Queries: 6031, Findings: 1, Exhausted: false},
	"cell-microrv32-E2-l2":         {Paths: 706, Completed: 705, Partial: 1, Instructions: 2824, Queries: 6741, Findings: 1, Exhausted: false},
	"cell-microrv32-E3-l1":         {Paths: 581, Completed: 580, Partial: 1, Instructions: 1162, Queries: 4934, Findings: 1, Exhausted: false},
	"cell-microrv32-E3-l2":         {Paths: 581, Completed: 580, Partial: 1, Instructions: 2324, Queries: 5519, Findings: 1, Exhausted: false},
	"cell-microrv32-E4-l1":         {Paths: 802, Completed: 801, Partial: 1, Instructions: 1604, Queries: 6983, Findings: 1, Exhausted: false},
	"cell-microrv32-E4-l2":         {Paths: 802, Completed: 801, Partial: 1, Instructions: 3208, Queries: 7789, Findings: 1, Exhausted: false},
	"cell-microrv32-E5-l1":         {Paths: 9, Completed: 8, Partial: 1, Instructions: 18, Queries: 34, Findings: 1, Exhausted: false},
	"cell-microrv32-E5-l2":         {Paths: 9, Completed: 8, Partial: 1, Instructions: 36, Queries: 47, Findings: 1, Exhausted: false},
	"cell-microrv32-E6-l1":         {Paths: 55, Completed: 54, Partial: 1, Instructions: 110, Queries: 297, Findings: 1, Exhausted: false},
	"cell-microrv32-E6-l2":         {Paths: 55, Completed: 54, Partial: 1, Instructions: 220, Queries: 356, Findings: 1, Exhausted: false},
	"cell-microrv32-E7-l1":         {Paths: 337, Completed: 336, Partial: 1, Instructions: 674, Queries: 2602, Findings: 1, Exhausted: false},
	"cell-microrv32-E7-l2":         {Paths: 337, Completed: 336, Partial: 1, Instructions: 1348, Queries: 2943, Findings: 1, Exhausted: false},
	"cell-microrv32-E8-l1":         {Paths: 193, Completed: 192, Partial: 1, Instructions: 386, Queries: 1191, Findings: 1, Exhausted: false},
	"cell-microrv32-E8-l2":         {Paths: 193, Completed: 192, Partial: 1, Instructions: 772, Queries: 1388, Findings: 1, Exhausted: false},
	"cell-microrv32-E9-l1":         {Paths: 298, Completed: 297, Partial: 1, Instructions: 596, Queries: 2201, Findings: 1, Exhausted: false},
	"cell-microrv32-E9-l2":         {Paths: 298, Completed: 297, Partial: 1, Instructions: 1192, Queries: 2503, Findings: 1, Exhausted: false},
	"cell-pipecore-E10-l2":         {Paths: 1504, Completed: 1503, Partial: 1, Instructions: 6016, Queries: 17392, Findings: 1, Exhausted: false},
	"cell-pipecore-E11-l2":         {Paths: 1521, Completed: 1520, Partial: 1, Instructions: 6084, Queries: 17529, Findings: 1, Exhausted: false},
}

// gate checks each exploration's deterministic fields against its pin or,
// unpinned, against the first time the run saw it. It counts the
// explorations checked and those that failed, and keeps the reasons.
type gate struct {
	first     map[string]result
	attempted int
	failed    int
	errs      []string
}

func newGate() *gate { return &gate{first: map[string]result{}} }

// check gates one exploration; extra is a further failure found for it
// (a witness that did not replay, an inconsistent trace), or nil.
func (g *gate) check(r result, extra error) {
	g.attempted++
	want, pinned := pins[r.exp.name]
	ref := result{det: want}
	if !pinned {
		prev, seen := g.first[r.exp.name]
		if !seen || (prev.cellOnly && !r.cellOnly) {
			g.first[r.exp.name] = r
			logf("unpinned %s: %v", r.exp.name, r.det)
		}
		if !seen {
			prev = r
		}
		ref = prev
	}
	var why string
	switch {
	case !sameDet(r, ref):
		why = fmt.Sprintf("%s: got %v, want %v", r.exp.name, r.det, ref.det)
	case !r.exp.tree && r.det.Findings != 1:
		why = fmt.Sprintf("%s: Table II cell found no mismatch", r.exp.name)
	case extra != nil:
		why = extra.Error()
	}
	if why != "" {
		g.failed++
		g.errs = append(g.errs, why)
		logf("FAILED %s", why)
	}
}
