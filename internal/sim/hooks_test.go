package sim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/prep"
)

// hookRuns are the configurations whose ServerHooks call sequences are
// pinned by golden files: a volatile stepper (delayed write-back clock,
// fsync-informs-server) with hooks installed directly, and a unified
// stepper whose hooks sit behind the fault stage.
var hookRuns = []struct {
	name string
	cfg  Config
}{
	{"volatile", Config{
		Model: cache.ModelVolatile,
		Cache: cache.Config{VolatileBlocks: 256},
		Seed:  3,
	}},
	{"unified-faults", Config{
		Model:  cache.ModelUnified,
		Cache:  cache.Config{VolatileBlocks: 128, NVRAMBlocks: 32},
		Seed:   3,
		Faults: &faults.Profile{Seed: 5, DropRate: 0.05, AckLossRate: 0.5},
	}},
}

// hookSequence drives ops through a stepper built from cfg and records
// every ServerHooks call, one line each: kind, time, file, range, cause
// and stability (writes), and the stepper's CurrentClient at the call.
func hookSequence(t *testing.T, ops []prep.Op, cfg Config) []string {
	t.Helper()
	var s *Stepper
	var lines []string
	cfg.Cache.Hooks = &cache.ServerHooks{
		Read: func(now int64, file uint64, r interval.Range) {
			lines = append(lines, fmt.Sprintf("R %d f%d [%d,%d) c%d", now, file, r.Start, r.End, s.CurrentClient()))
		},
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			lines = append(lines, fmt.Sprintf("W %d f%d [%d,%d) %v %t c%d", now, file, r.Start, r.End, cause, stable, s.CurrentClient()))
		},
		Delete: func(now int64, file uint64, r interval.Range) {
			lines = append(lines, fmt.Sprintf("D %d f%d [%d,%d) c%d", now, file, r.Start, r.End, s.CurrentClient()))
		},
	}
	s = NewStepper(prep.NewSliceSource(ops), cfg)
	if err := s.StepAll(); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	s.Release()
	return lines
}

// hookChunk is how many consecutive hook calls one golden digest covers,
// so a divergence is located to within a chunk without checking in the
// full sequences (~24k calls each).
const hookChunk = 1000

// hookDigests renders a hook sequence as golden lines: one per chunk of
// hookChunk calls, naming the run, the chunk, its call count, and the
// first 16 hex digits of the SHA-256 of its newline-joined calls.
func hookDigests(name string, lines []string) []string {
	var out []string
	for c := 0; c*hookChunk < len(lines); c++ {
		chunk := lines[c*hookChunk : min((c+1)*hookChunk, len(lines))]
		sum := sha256.Sum256([]byte(strings.Join(chunk, "\n")))
		out = append(out, fmt.Sprintf("%s %d %d %x", name, c, len(chunk), sum[:8]))
	}
	return out
}

// TestHookSequenceGolden pins what ServerHooks observe — every read,
// write-back and delete call, in order, with the client the stepper
// reports as current — over the mixed-op trace (writes, reads, deletes,
// fsyncs, migrations, shared files). Hooks feed external write-back
// stages (the fault injector, the daemon), so a change to the apply path
// that reorders or misattributes any call must show here.
func TestHookSequenceGolden(t *testing.T) {
	ops := traceOps(t, 7, 0.02)
	raw, err := os.ReadFile(filepath.Join("testdata", "hooks.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for _, run := range hookRuns {
		lines := hookSequence(t, ops, run.cfg)
		if len(lines) == 0 {
			t.Fatalf("%s: no hook calls recorded", run.name)
		}
		got = append(got, hookDigests(run.name, lines)...)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("hook sequence diverges in chunk of %d calls:\n got %s\nwant %s", hookChunk, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("recorded %d chunk digests, golden has %d", len(got), len(want))
	}
}
