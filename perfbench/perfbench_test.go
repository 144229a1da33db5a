package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func readFixture(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("testdata/trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSelfTime pins the self-time arithmetic on a fixed trace: each span's
// duration minus its kids rollup, summed per name.
func TestSelfTime(t *testing.T) {
	d, err := digestTrace(strings.NewReader(readFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"explore":       100, // 1000 - 900
		"path":          450, // (500 - 400) + (400 - 50)
		"rtl-step":      100, // 300 - 200
		"cache-probe":   50,  // 200 - 150
		"solver-check":  150,
		"iss-step":      100,
		"voter-compare": 50,
	}
	if !reflect.DeepEqual(d.self, want) {
		t.Errorf("self = %v, want %v", d.self, want)
	}
	if d.count["path"] != 2 || d.exploreDur != 1000 || d.handle0Self != 1000 || d.rollupGap != 0 {
		t.Errorf("count %v explore %v handle0 %v gap %v", d.count, d.exploreDur, d.handle0Self, d.rollupGap)
	}
	if !reflect.DeepEqual(d.paths, []time.Duration{500, 400}) {
		t.Errorf("paths = %v", d.paths)
	}
	if err := d.checkSelfTime(1010); err != nil {
		t.Errorf("consistent trace rejected: %v", err)
	}
	if err := d.checkSelfTime(990); err == nil {
		t.Error("explore span longer than its call accepted")
	}
}

// TestSelfTimeCatchesLostSpan drops the iss-step span: the path's rollup
// still counts it, so the self times no longer sum to the explore span.
func TestSelfTimeCatchesLostSpan(t *testing.T) {
	var kept []string
	for _, l := range strings.Split(readFixture(t), "\n") {
		if !strings.Contains(l, `"name":"iss-step","t0"`) {
			kept = append(kept, l)
		}
	}
	d, err := digestTrace(strings.NewReader(strings.Join(kept, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if d.rollupGap != 100 {
		t.Errorf("rollup gap = %v, want 100ns", d.rollupGap)
	}
	if err := d.checkSelfTime(1010); err == nil {
		t.Error("trace with a lost span passed the self-time check")
	}
}

func TestKidsExceedingSpanRejected(t *testing.T) {
	bad := `{"ev":"span","id":1,"par":0,"w":0,"name":"explore","t0":0,"dur":10,"kids":[{"name":"path","n":1,"ns":11}]}`
	if _, err := digestTrace(strings.NewReader(bad)); err == nil {
		t.Error("kids longer than their span accepted")
	}
}

func TestDrift(t *testing.T) {
	d := &digest{}
	for i := 0; i < 30; i++ {
		d.paths = append(d.paths, time.Duration(10+i))
	}
	// The first and last tenths are 10..12 and 37..39.
	if got, ok := d.drift(); !ok || got != 114.0/33.0 {
		t.Errorf("drift = %v, %v; want %v", got, ok, 114.0/33.0)
	}
	if _, ok := (&digest{paths: d.paths[:19]}).drift(); ok {
		t.Error("drift defined below 20 paths")
	}
}

// TestWorkloadsFromSeed: a seed always builds the same inputs, and every
// seed builds the same work in some order.
func TestWorkloadsFromSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7, deepTreeSeed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7, deepTreeSeed)
		c, _ := newWorkload(name, 8, deepTreeSeed)
		if got, want := expNames(a), expNames(b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: seed 7 built %v then %v", name, got, want)
		}
		if got, want := sortedNames(a), sortedNames(c); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: seeds 7 and 8 differ in work: %v vs %v", name, got, want)
		}
		for _, n := range expNames(a) {
			if _, ok := pins[n]; !ok {
				t.Errorf("%s: exploration %s has no pin", name, n)
			}
		}
	}
	if _, err := newWorkload("nope", 1, deepTreeSeed); err == nil {
		t.Error("unknown workload accepted")
	}
}

func expNames(w *workload) []string {
	var out []string
	for _, p := range w.parts {
		for _, e := range p.explorations() {
			out = append(out, e.name)
		}
	}
	return out
}

func sortedNames(w *workload) []string {
	n := expNames(w)
	sort.Strings(n)
	return n
}

// TestBenchmarkJSONMatchesDefinitions keeps BENCHMARK.json and the metric
// and workload tables here naming the same things.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestInParallelCallsEachIndexOnce: the untimed replays write one slot per
// index from several goroutines (run with -race).
func TestInParallelCallsEachIndexOnce(t *testing.T) {
	const n = 1000
	calls := make([]int, n)
	inParallel(n, func(i int) { calls[i]++ })
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
	inParallel(0, func(int) { t.Error("called with n = 0") })
}

func TestHeapPeakStops(t *testing.T) {
	h := startHeapPeak()
	sink := make([]byte, 1<<20)
	if peak := h.end(); peak < uint64(len(sink)) {
		t.Errorf("peak %d below a live 1 MiB allocation", peak)
	}
	sink[0] = 1
}
