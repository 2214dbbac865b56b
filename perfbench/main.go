// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time and prints every metric by name with its unit; the
// last line of its output is a JSON result. Run it through run.sh, which
// builds it and nvramd from the checkout:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
//
// Workloads: repro (the paper's experiments, in process) and serve (a
// healthy nvramd child). --trace 1 makes a separate traced run that
// times each layer from outside and reports the per-layer metrics. A run
// whose correctness checks fail still prints its result line, then exits
// with status 1. NOTES.md explains the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"nvramfs/internal/workload"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	nvramd   string // the nvramd binary
	work     string // scratch directory inside the checkout
	results  string // where result and span files go
	log      func(format string, args ...any)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		opt     options
		seed    = flag.Int64("seed", 0, "workload seed (0 = the standard trace-7 seed)")
		seconds = flag.Int("seconds", 45, "how long the run measures")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.StringVar(&opt.workload, "workload", "", "repro or serve")
	flag.StringVar(&opt.nvramd, "nvramd", ".bench_build/perfbench/bin/nvramd", "nvramd binary")
	flag.StringVar(&opt.work, "work", ".bench_build/perfbench/work", "scratch directory")
	flag.StringVar(&opt.results, "results", ".bench_build/perfbench/results", "directory for result and span files")
	flag.Parse()

	opt.seed = *seed
	if opt.seed == 0 {
		opt.seed = workload.StandardProfile(7, serviceScale).Seed
	}
	opt.seconds = time.Duration(*seconds) * time.Second
	opt.log = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
	switch flag.Arg(0) {
	case "compare":
		os.Exit(compareMain(opt, flag.Args()[1:]))
	case "repro-rep":
		os.Exit(reproRepMain())
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		opt.log("--seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(opt.work, fmt.Sprintf("%s-%d", opt.workload, os.Getpid())))
	if err != nil {
		opt.log("%v", err)
		os.Exit(1)
	}
	opt.work = work
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		opt.log("%v", err)
		os.Exit(1)
	}
	defer os.RemoveAll(opt.work)

	host := measureHost()
	var res *result
	var extra map[string]any
	switch opt.workload {
	case "repro":
		res, extra, err = repro(opt, *traced == 1)
	case "serve":
		res, extra, err = service(opt, *traced == 1)
	default:
		err = fmt.Errorf("unknown workload %q (repro, serve)", opt.workload)
	}
	if err != nil {
		opt.log("%v", err)
		os.RemoveAll(opt.work)
		os.Exit(1)
	}

	host.CPURefEndMS = cpuRefMS()
	printMetrics(res)
	if err := writeResultFile(opt, *traced, host, res, extra); err != nil {
		opt.log("writing result file: %v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		opt.log("%v", err)
		os.RemoveAll(opt.work)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.RemoveAll(opt.work)
		os.Exit(1)
	}
}

// printMetrics prints one "name value unit" line per metric.
func printMetrics(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// writeResultFile records the run with the host facts beside it.
func writeResultFile(opt options, traced int, host hostFacts, r *result, extra map[string]any) error {
	if err := os.MkdirAll(opt.results, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", opt.workload, opt.seed, traced, time.Now().UTC().Format("20060102T150405.000"))
	b, err := json.MarshalIndent(map[string]any{
		"workload": opt.workload, "seed": opt.seed, "seconds": opt.seconds.Seconds(), "trace": traced,
		"host": host, "result": r, "detail": extra,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.results, name), append(b, '\n'), 0o644)
}
