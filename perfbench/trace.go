package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"symriscv/internal/obs"
)

// digest is the benchmark's reading of one exploration's JSONL trace.
type digest struct {
	// self is each span name's self time: every span's duration minus the
	// durations its kids rollup records for the child spans nested in it
	// on the same handle (an rtl-step minus its cache-probes, a
	// cache-probe minus its solver-checks).
	self  map[string]time.Duration
	count map[string]int
	// exploreDur sums the explore spans; handle0Self sums the self times of
	// the spans on handle 0, the explorer's own (at one worker, all of
	// them). The two agree when every kids rollup accounts for its spans.
	exploreDur  time.Duration
	handle0Self time.Duration
	// rollupGap sums, over all spans, how far the kids rollup is from the
	// children the trace actually holds for that span on its handle.
	rollupGap time.Duration
	// paths lists the path spans' durations in start order.
	paths []time.Duration
}

type spanKey struct {
	id uint64
	w  int
}

// digestTrace reads a trace written by obs.Recorder.
func digestTrace(r io.Reader) (*digest, error) {
	d := &digest{self: map[string]time.Duration{}, count: map[string]int{}}
	childSum := map[spanKey]uint64{} // children's durations per parent span, same handle
	type pathSpan struct{ t0, dur uint64 }
	var paths []pathSpan
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		if ev.Ev != "span" {
			continue
		}
		var kids uint64
		for _, k := range ev.Kids {
			kids += k.NS
		}
		if kids > ev.Dur {
			return nil, fmt.Errorf("trace line %d: %s span %d: kids %dns exceed its %dns", line, ev.Name, ev.ID, kids, ev.Dur)
		}
		// Children end, and are written, before their parent.
		key := spanKey{ev.ID, ev.W}
		d.rollupGap += time.Duration(absDiff(kids, childSum[key]))
		delete(childSum, key)
		if ev.Par != 0 {
			childSum[spanKey{ev.Par, ev.W}] += ev.Dur
		}

		self := time.Duration(ev.Dur - kids)
		d.self[ev.Name] += self
		d.count[ev.Name]++
		if ev.W == 0 {
			d.handle0Self += self
		}
		switch ev.Name {
		case obs.PhaseExplore:
			d.exploreDur += time.Duration(ev.Dur)
		case obs.PhasePath:
			paths = append(paths, pathSpan{ev.T0, ev.Dur})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].t0 < paths[j].t0 })
	for _, p := range paths {
		d.paths = append(d.paths, time.Duration(p.dur))
	}
	return d, nil
}

// selfTimeTolerance is the share of the explore spans' total by which the
// handle-0 self times, plus the rollup gap, may miss it. Rollups are exact
// integer sums, so any gap means lost or misparented spans.
const selfTimeTolerance = 0.001

// checkSelfTime checks that the per-layer self times on the explorer's own
// handle sum to the explore span, and that the benchmark's own span (the
// call it timed from outside) covers the explore span.
func (d *digest) checkSelfTime(callWall time.Duration) error {
	tol := time.Duration(selfTimeTolerance * float64(d.exploreDur))
	if gap := absDur(d.handle0Self-d.exploreDur) + d.rollupGap; gap > tol {
		return fmt.Errorf("self times miss the explore span by %v (rollup gap %v) of %v, over the %v tolerance",
			absDur(d.handle0Self-d.exploreDur), d.rollupGap, d.exploreDur, tol)
	}
	if callWall < d.exploreDur {
		return fmt.Errorf("explore span %v outlasts the call %v that made it", d.exploreDur, callWall)
	}
	return nil
}

// drift is the mean duration of the last tenth of the paths divided by that
// of the first tenth; ok is false below 20 paths.
func (d *digest) drift() (float64, bool) {
	n := len(d.paths) / 10
	if n < 2 {
		return 0, false
	}
	var first, last time.Duration
	for i := 0; i < n; i++ {
		first += d.paths[i]
		last += d.paths[len(d.paths)-1-i]
	}
	if first == 0 {
		return 0, false
	}
	return float64(last) / float64(first), true
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
