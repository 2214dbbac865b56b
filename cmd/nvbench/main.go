// Command nvbench records the repo's performance trajectory: it runs the
// benchmark suite (or parses a previously captured `go test -bench` log),
// extracts ns/op, B/op, and allocs/op for every benchmark, and writes them
// as JSON so future PRs have a baseline to compare against.
//
// Usage:
//
//	nvbench                           # run go test -bench . -benchmem, write BENCH_1.json
//	nvbench -benchtime 5x -o out.json # longer runs, custom output
//	nvbench -input old_bench.txt      # parse a saved log instead of running
//	nvbench -pkg ./... -bench Sim     # restrict packages / benchmarks
//	nvbench -stream-smoke             # bounded-memory check only (CI gate)
//	nvbench -shard-smoke              # -j 4 vs -j 1 divergence and speedup check (CI gate)
//	nvbench -fleet-smoke              # population-scale bounded-memory and determinism check (CI gate)
//
// The JSON maps benchmark name → {ns_per_op, b_per_op, allocs_per_op};
// map keys marshal sorted, so successive files diff cleanly. Runs (not
// log parses) also record a streaming_memory section: peak heap while the
// streaming pipeline simulates a trace at a base length and again grown
// -mem-factor×, the evidence that memory stays flat as traces grow.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark's measurements.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the schema of BENCH_1.json.
type File struct {
	// Benchtime echoes the -benchtime the numbers were collected at
	// (comparisons across different benchtimes are apples to oranges).
	Benchtime  string           `json:"benchtime"`
	Benchmarks map[string]Entry `json:"benchmarks"`
	// StreamingMemory, when present, records the peak-heap measurement of
	// the streaming pipeline at a base trace length and at the grown
	// length (see streammem.go). Absent when parsing a saved log.
	StreamingMemory *StreamMemory `json:"streaming_memory,omitempty"`
	// ShardSpeedup, when present, records the parallel-pipeline
	// measurement: -j 1 vs -j 4 Figure 2/3 renders, byte-compared and
	// timed (see shardsmoke.go). Absent when parsing a saved log.
	ShardSpeedup *ShardSpeedup `json:"shard_speedup,omitempty"`
	// DurableSmoke, when present, records the kill/reopen crash check
	// against a real mmap image file and the measured msync commit cost
	// (see durablesmoke.go). Absent when parsing a saved log.
	DurableSmoke *DurableSmoke `json:"durable_smoke,omitempty"`
	// FleetSmoke, when present, records the population-scale check: peak
	// heap at 10k vs 100k clients through a 16-shard fleet, plus the
	// fleet experiment's -j 1 vs -j 8 byte-identity (see fleetsmoke.go).
	// Absent when parsing a saved log.
	FleetSmoke *FleetSmoke `json:"fleet_smoke,omitempty"`
	// DaemonSmoke, when present, records the live-service check: a real
	// nvramd process SIGKILLed mid-backlog and restarted must recover the
	// parked write-back backlog with zero committed-byte loss, plus the
	// healthy daemon's replay throughput/latency baseline (see
	// daemonsmoke.go). Absent when parsing a saved log.
	DaemonSmoke *DaemonSmoke `json:"daemon_smoke,omitempty"`
}

// benchLine matches `go test -bench -benchmem` result lines, e.g.
//
//	BenchmarkSimUnifiedTrace7-4   5  109223732 ns/op  3145.52 MB/s  22823630 B/op  334588 allocs/op
//
// The GOMAXPROCS suffix and MB/s column are optional; the -benchmem columns
// are required (a line without them carries no allocation data to record).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?\s+(\d+) B/op\s+(\d+) allocs/op`)

// parse extracts benchmark entries from a `go test -bench` log.
func parse(r io.Reader) (map[string]Entry, error) {
	out := map[string]Entry{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		bytes, err := strconv.ParseInt(m[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
		}
		allocs, err := strconv.ParseInt(m[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
		}
		out[m[1]] = Entry{NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
	}
	return out, sc.Err()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nvbench: ")
	var (
		bench     = flag.String("bench", ".", "benchmark name regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value")
		pkg       = flag.String("pkg", "./...", "package pattern to benchmark")
		out       = flag.String("o", "BENCH_1.json", "output JSON path")
		input     = flag.String("input", "", "parse this saved bench log instead of running go test")
		memScale  = flag.Float64("mem-scale", 0.02, "base trace scale for the streaming-memory column")
		memFactor = flag.Int("mem-factor", 100, "trace-length growth factor for the streaming-memory column")
		smoke     = flag.Bool("stream-smoke", false,
			"only run the streaming-memory check (at -mem-factor, default 10) and fail if peak heap more than doubles")
		shardScale = flag.Float64("shard-scale", 0.05, "workload scale for the shard-speedup measurement")
		shardSmoke = flag.Bool("shard-smoke", false,
			"only run the sharded-pipeline check: fail if sharded output diverges from sequential, or (with >= 4 CPUs) if the -j 4 speedup is under 1.5x")
		durableScale = flag.Float64("durable-scale", 0.02, "workload scale for the durable kill/reopen measurement")
		durableSmoke = flag.Bool("durable-smoke", false,
			"only run the durable kill/reopen check: fail if recovery from a reopened image file diverges from the in-memory oracle at any sampled boundary")
		fleetSmoke = flag.Bool("fleet-smoke", false,
			"only run the fleet population check: fail if peak heap at 100k clients exceeds 2x the 10k-client run, or if the fleet experiment's output differs across worker counts")
		daemonSmoke = flag.Bool("daemon-smoke", false,
			"only run the live-service check: SIGKILL a loaded nvramd and fail unless the restart recovers the parked backlog with zero committed-byte loss")
	)
	flag.Parse()

	if *daemonSmoke {
		ds, err := measureDaemonSmoke()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("daemon smoke: %d parked bytes recovered across SIGKILL (%d deliveries), lost %d; healthy replay %d events at %.0f ops/s (p50 %dus, p99 %dus)",
			ds.ParkedBytes, ds.RecoveredDeliveries, ds.LostBytes,
			ds.ReplayEvents, ds.OpsPerSec, ds.P50US, ds.P99US)
		return
	}

	if *fleetSmoke {
		fs, err := measureFleetSmoke()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("fleet smoke: %d shards: %d clients (%d events) peak %.1f MiB → %d clients (%d events) peak %.1f MiB (ratio %.2f), -j1/-j8 identical: %v",
			fs.Shards, fs.BaseClients, fs.BaseEvents, float64(fs.BasePeakHeapBytes)/(1<<20),
			fs.GrownClients, fs.GrownEvents, float64(fs.GrownPeakHeapBytes)/(1<<20),
			fs.PeakHeapRatio, fs.OutputIdentical)
		if fs.PeakHeapRatio > 2 {
			log.Fatalf("peak heap grew %.2f× for a 10× larger population; per-client state is not retiring", fs.PeakHeapRatio)
		}
		if !fs.OutputIdentical {
			log.Fatal("fleet experiment output diverges between -j 1 and -j 8")
		}
		return
	}

	if *durableSmoke {
		ds, err := measureDurableSmoke(*durableScale)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("durable smoke: %d boundaries exact, max backlog %d B; commit cost %.0f ns/msync, %.0f ns/commit (%d msyncs over %d puts)",
			ds.Boundaries, ds.ParkedBytesMax, ds.NsPerMsync, ds.NsPerCommit, ds.Msyncs, ds.CommitPuts)
		return
	}

	if *shardSmoke {
		ss, err := measureShardSpeedup(*shardScale, 4)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("shard smoke: %d CPUs, %d workers, shard width %d: sequential %.2fs, sharded %.2fs (%.2fx), output identical: %v",
			ss.NumCPU, ss.Workers, ss.ShardWidth,
			float64(ss.SequentialNs)/1e9, float64(ss.ShardedNs)/1e9, ss.Speedup, ss.OutputIdentical)
		if !ss.OutputIdentical {
			log.Fatal("sharded Figure 2/3 output diverges from the sequential render")
		}
		if ss.NumCPU >= 4 && ss.Speedup < 1.5 {
			log.Fatalf("sharded speedup %.2fx at -j %d on a %d-CPU box, need >= 1.5x", ss.Speedup, ss.Workers, ss.NumCPU)
		}
		if ss.NumCPU < 4 {
			log.Printf("only %d CPUs: divergence check passed, speedup gate skipped (needs >= 4 cores)", ss.NumCPU)
		}
		return
	}

	if *smoke {
		factor := *memFactor
		if factor == 100 { // default; the smoke uses a faster growth factor
			factor = 10
		}
		sm, err := measureStreamMemory(*memScale, factor)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("streaming memory: %d ops peak %.1f MiB → %d ops (%d×) peak %.1f MiB (ratio %.2f)",
			sm.BaseOps, float64(sm.BasePeakHeapBytes)/(1<<20),
			sm.GrownOps, sm.LengthFactor, float64(sm.GrownPeakHeapBytes)/(1<<20),
			sm.PeakHeapRatio)
		if sm.PeakHeapRatio > 2 {
			log.Fatalf("peak heap grew %.2f× for a %d× longer trace; the pipeline is materializing", sm.PeakHeapRatio, factor)
		}
		return
	}

	var entries map[string]Entry
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			log.Fatal(err)
		}
		entries, err = parse(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		args := []string{"test", "-run", "^$",
			"-bench", *bench, "-benchmem", "-benchtime", *benchtime}
		args = append(args, strings.Fields(*pkg)...)
		cmd := exec.Command("go", args...)
		var buf strings.Builder
		cmd.Stdout = io.MultiWriter(&buf, os.Stderr)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			log.Fatalf("go test -bench failed: %v", err)
		}
		var err error
		entries, err = parse(strings.NewReader(buf.String()))
		if err != nil {
			log.Fatal(err)
		}
	}
	if len(entries) == 0 {
		log.Fatal("no benchmark result lines found (is -benchmem output present?)")
	}

	var streamMem *StreamMemory
	var shardSp *ShardSpeedup
	var durable *DurableSmoke
	var fleetSm *FleetSmoke
	var daemonSm *DaemonSmoke
	if *input == "" {
		sm, err := measureStreamMemory(*memScale, *memFactor)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("streaming memory: %d ops peak %.1f MiB → %d ops (%d×) peak %.1f MiB (ratio %.2f)",
			sm.BaseOps, float64(sm.BasePeakHeapBytes)/(1<<20),
			sm.GrownOps, sm.LengthFactor, float64(sm.GrownPeakHeapBytes)/(1<<20),
			sm.PeakHeapRatio)
		streamMem = sm
		// Same forced -j 4 configuration as -shard-smoke, so the recorded
		// number reflects the sharded path even on boxes where
		// GOMAXPROCS(0) == 1 would pick a degenerate width of 1.
		ss, err := measureShardSpeedup(*shardScale, 4)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("shard speedup: sequential %.2fs → sharded %.2fs (%.2fx at -j %d, width %d), output identical: %v",
			float64(ss.SequentialNs)/1e9, float64(ss.ShardedNs)/1e9,
			ss.Speedup, ss.Workers, ss.ShardWidth, ss.OutputIdentical)
		if !ss.OutputIdentical {
			log.Fatal("sharded Figure 2/3 output diverges from the sequential render")
		}
		shardSp = ss
		ds, err := measureDurableSmoke(*durableScale)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("durable smoke: %d boundaries exact, max backlog %d B; commit cost %.0f ns/msync, %.0f ns/commit",
			ds.Boundaries, ds.ParkedBytesMax, ds.NsPerMsync, ds.NsPerCommit)
		durable = ds
		fs, err := measureFleetSmoke()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("fleet smoke: %d clients peak %.1f MiB → %d clients peak %.1f MiB (ratio %.2f), -j1/-j8 identical: %v",
			fs.BaseClients, float64(fs.BasePeakHeapBytes)/(1<<20),
			fs.GrownClients, float64(fs.GrownPeakHeapBytes)/(1<<20),
			fs.PeakHeapRatio, fs.OutputIdentical)
		fleetSm = fs
		dsm, err := measureDaemonSmoke()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("daemon smoke: %d parked bytes recovered across SIGKILL (%d deliveries), lost %d; healthy replay %.0f ops/s (p50 %dus, p99 %dus)",
			dsm.ParkedBytes, dsm.RecoveredDeliveries, dsm.LostBytes,
			dsm.OpsPerSec, dsm.P50US, dsm.P99US)
		daemonSm = dsm
	}

	data, err := json.MarshalIndent(File{Benchtime: *benchtime, Benchmarks: entries, StreamingMemory: streamMem, ShardSpeedup: shardSp, DurableSmoke: durable, FleetSmoke: fleetSm, DaemonSmoke: daemonSm}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(entries))
}
