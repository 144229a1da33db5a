package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"symriscv/internal/core"
	"symriscv/internal/qstore"
	"symriscv/internal/querycache"
)

// TestRunUsageErrors pins the unified bad-input contract across every
// subcommand: exit code 2 with an explanation on stderr, whether the problem
// is an unknown command, an unknown flag, a malformed flag value, or a
// missing operand. Every case here must fail during validation — none may
// reach an actual exploration.
func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring that must appear on stderr
	}{
		{"no command", nil, "commands:"},
		{"unknown command", []string{"frobnicate"}, "unknown command"},

		{"table1 bad flag", []string{"table1", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"table2 bad flag", []string{"table2", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"hunt bad flag", []string{"hunt", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"longrun bad flag", []string{"longrun", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"ablation bad flag", []string{"ablation", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"bench bad flag", []string{"bench", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"baseline bad flag", []string{"baseline", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"replay bad flag", []string{"replay", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"trace bad flag", []string{"trace", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"cache bad flag", []string{"cache", "stats", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"lint-table bad flag", []string{"lint-table", "-definitely-not-a-flag"}, "flag provided but not defined"},
		{"lint-dut bad flag", []string{"lint-dut", "-definitely-not-a-flag"}, "flag provided but not defined"},

		{"bad -cache toggle", []string{"hunt", "-cache", "maybe"}, "bad -cache"},
		{"bad -rewrite toggle", []string{"hunt", "-rewrite", "maybe"}, "bad -rewrite"},
		{"bad -workers value", []string{"hunt", "-workers", "three"}, "invalid value"},
		// Every path replays its decision prefix; there is no -fork toggle.
		{"removed -fork flag", []string{"hunt", "-fork", "on"}, "flag provided but not defined: -fork"},

		{"bad -core value", []string{"hunt", "-core", "bogus"}, "bad -core"},
		// The deprecated table2 -dut alias is removed: any use of it, alone or
		// next to -core, is now the unknown-flag usage error.
		{"table2 unknown dut", []string{"table2", "-dut", "bogus"}, "flag provided but not defined: -dut"},
		{"table2 dut/core conflict", []string{"table2", "-dut", "pipeline", "-core", "microrv32"}, "flag provided but not defined: -dut"},
		{"ablation is microrv32-only", []string{"ablation", "-core", "pipecore"}, "supports only -core microrv32"},
		{"hunt -shipped pipecore", []string{"hunt", "-core", "pipecore", "-shipped"}, "microrv32-only"},
		{"hunt -mie-bug pipecore", []string{"hunt", "-core", "pipecore", "-mie-bug"}, "microrv32-only"},
		{"table2 bad limits", []string{"table2", "-limits", "1,x"}, "bad -limits"},
		{"table2 unknown fault", []string{"table2", "-faults", "E99"}, "unknown fault"},
		{"hunt unknown fault", []string{"hunt", "-fault", "E99"}, "unknown fault"},
		{"hunt unknown search", []string{"hunt", "-search", "bogus"}, "unknown search strategy"},
		{"ablation unknown kind", []string{"ablation", "-kind", "bogus"}, "unknown ablation kind"},
		{"baseline unknown fault", []string{"baseline", "-faults", "E99"}, "unknown fault"},
		{"bench unknown fault", []string{"bench", "-faults", "E99"}, "unknown fault"},

		{"replay no vector", []string{"replay"}, "no test-vector assignments"},
		{"replay malformed pair", []string{"replay", "justaname"}, "want name=hexvalue"},
		{"replay bad hex", []string{"replay", "x1=zz"}, "bad value"},
		{"trace missing operand", []string{"trace"}, "usage: symv trace"},

		{"cache no op", []string{"cache"}, "usage: symv cache"},
		{"cache unknown op", []string{"cache", "frobnicate"}, "unknown operation"},
		{"cache missing store", []string{"cache", "stats"}, "-store DIR is required"},

		{"lint-table unknown core", []string{"lint-table", "-core", "bogus"}, "bad -core"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if code := run(tc.args, &buf); code != 2 {
				t.Fatalf("run(%q) = %d, want 2; stderr:\n%s", tc.args, code, buf.String())
			}
			if !strings.Contains(buf.String(), tc.want) {
				t.Fatalf("run(%q) stderr missing %q:\n%s", tc.args, tc.want, buf.String())
			}
		})
	}
}

// TestHelpExitsZero pins that asking for help is not an error.
func TestHelpExitsZero(t *testing.T) {
	for _, arg := range []string{"help", "-h", "--help"} {
		var buf bytes.Buffer
		if code := run([]string{arg}, &buf); code != 0 {
			t.Fatalf("run(%q) = %d, want 0", arg, code)
		}
		if !strings.Contains(buf.String(), "commands:") {
			t.Fatalf("run(%q) printed no usage:\n%s", arg, buf.String())
		}
	}
}

// seedStore publishes a few witnesses into a fresh store directory so the
// offline cache operations have something to chew on.
func seedStore(t *testing.T) (dir, key string) {
	t.Helper()
	dir = t.TempDir()
	key = qstore.VersionKey("cmd=test")
	st, err := qstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	es := []querycache.PortableEntry{
		{Hashes: []uint64{1, 2, 3}, Sat: true, Model: querycache.Model{"x1": 7}},
		{Hashes: []uint64{2, 3}, Sat: true, Model: querycache.Model{"x1": 7}},
		{Hashes: []uint64{9}, Sat: false},
	}
	for i := range es {
		es[i].Key = querycache.KeyOf(es[i].Hashes)
	}
	if _, err := st.Persist(key, es); err != nil {
		t.Fatal(err)
	}
	return dir, key
}

// TestCacheSubcommand smoke-tests the offline store maintenance operations
// end to end: stats and gc succeed on a healthy store, distill emits a
// replayable corpus, and verify turns damage into exit code 1.
func TestCacheSubcommand(t *testing.T) {
	dir, key := seedStore(t)

	for _, op := range []string{"stats", "verify", "gc", "distill"} {
		var buf bytes.Buffer
		if code := run([]string{"cache", op, "-store", dir}, &buf); code != 0 {
			t.Fatalf("cache %s = exit %d; stderr:\n%s", op, code, buf.String())
		}
	}
	var buf bytes.Buffer
	if code := run([]string{"cache", "distill", "-store", dir, "-key", key, "-json"}, &buf); code != 0 {
		t.Fatalf("cache distill -key = exit %d; stderr:\n%s", code, buf.String())
	}

	// Truncate the (single, post-gc) segment: verify must report the damage
	// and exit 1, stats must keep working.
	segs, err := filepath.Glob(filepath.Join(dir, "*.qseg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments after gc: %v", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if code := run([]string{"cache", "verify", "-store", dir}, &buf); code != 1 {
		t.Fatalf("cache verify on damaged store = exit %d, want 1; stderr:\n%s", code, buf.String())
	}
	buf.Reset()
	if code := run([]string{"cache", "stats", "-store", dir}, &buf); code != 0 {
		t.Fatalf("cache stats on damaged store = exit %d; stderr:\n%s", code, buf.String())
	}
}

// TestProgressLine pins hunt -progress's stderr line: paths, paths/s,
// findings and elapsed time, with both counts labelled as covering executed
// paths when several workers may run paths the canonical cut later discards.
func TestProgressLine(t *testing.T) {
	st := core.Stats{Paths: 512, Findings: 1, Elapsed: 2 * time.Second}
	for _, tc := range []struct {
		workers int
		want    string
	}{
		{1, "  ... 512 paths, 256 paths/s, 1 findings, 2s elapsed\n"},
		{2, "  ... 512 executed paths, 256 paths/s, 1 findings among them, 2s elapsed\n"},
	} {
		var buf bytes.Buffer
		progressLine(&buf, tc.workers)(st)
		if buf.String() != tc.want {
			t.Errorf("workers=%d: %q, want %q", tc.workers, buf.String(), tc.want)
		}
	}
}
