package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"time"
)

// fingerprint identifies the host a result came from, so results from
// different hosts are flagged rather than compared.
type fingerprint struct {
	NumCPU       int
	GOMAXPROCS   int
	GoVersion    string
	CalibNsPerOp float64 // median ns per iteration of calibrate's fixed loop
}

func takeFingerprint() fingerprint {
	var ns []float64
	for i := 0; i < 5; i++ {
		ns = append(ns, calibrate())
	}
	return fingerprint{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CalibNsPerOp: median(ns),
	}
}

var calibSink uint64

// calibrate times a fixed splitmix64 loop: a single-core integer speed
// reading taken beside every result.
func calibrate() float64 {
	const iters = 1 << 21
	t0 := time.Now()
	var x, acc uint64
	for i := 0; i < iters; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		acc ^= z ^ (z >> 31)
	}
	calibSink = acc
	return float64(time.Since(t0).Nanoseconds()) / iters
}

// committedBenchNote compares the host with the one behind the committed
// BENCH_explore.json (symv bench output) and returns a note when its
// numbers are not comparable with this run's, or "" when they are or the
// file is absent.
func committedBenchNote(fp fingerprint) string {
	b, err := os.ReadFile("BENCH_explore.json")
	if err != nil {
		return ""
	}
	var old struct{ NumCPU, GOMAXPROCS int }
	if err := json.Unmarshal(b, &old); err != nil {
		return fmt.Sprintf("BENCH_explore.json unreadable (%v): not comparable", err)
	}
	if old.NumCPU != fp.NumCPU || old.GOMAXPROCS != fp.GOMAXPROCS {
		return fmt.Sprintf("BENCH_explore.json came from a host with NumCPU=%d GOMAXPROCS=%d (this one: %d/%d): its numbers are not comparable",
			old.NumCPU, old.GOMAXPROCS, fp.NumCPU, fp.GOMAXPROCS)
	}
	return ""
}

// heapPeak samples the Go heap in use on a 2 ms ticker until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
		}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		read()
		for {
			select {
			case <-t.C:
				read()
			case <-h.stop:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it and returns the peak in bytes.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	return <-h.done
}

// allocCounters reads the cumulative allocated bytes and GC cycles.
func allocCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// setupProbes is how many fresh processes setup_s takes the median over.
const setupProbes = 21

// measureSetup spawns the benchmark setupProbes times in probe mode and
// times each from spawn to its "ready" line: process start, runtime and
// package initialisation, and building the workload's inputs.
func measureSetup(workloadName string, seed, treeSeed int64) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	var ds []time.Duration
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", workloadName,
			"--seed", fmt.Sprint(seed), "--tree-seed", fmt.Sprint(treeSeed))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		waitErr := cmd.Wait()
		if readErr != nil || line != "ready\n" || waitErr != nil {
			return 0, fmt.Errorf("set-up probe: line %q, read %v, exit %v", line, readErr, waitErr)
		}
		ds = append(ds, d)
	}
	return median(ds), nil
}
