package main

// Compare mode: runs the benchmark in a parent checkout and a change
// checkout in alternating pairs and judges each end-to-end metric by the
// rule the benchmark's users apply (choosing-metrics, section 8):
//
//   - at least ten pairs, alternating which side runs first;
//   - a gain needs the change to win at least 9 in 10 pairs (ties count for
//     neither) and medians further apart than the parent's quartile spread;
//   - a regression is a median worse than the parent's by more than the
//     metric's bound;
//   - a metric whose spread is wider than its bound is unresolved, unless
//     every change run beats every parent run.
//
// It needs only the standard library; benchstat is not available offline.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is the judgement of one metric on one workload.
type verdict struct {
	ParentMed, ParentQ1, ParentQ3 float64
	ChangeMed, ChangeQ1, ChangeQ3 float64
	Wins, Pairs                   int
	Call                          string // gain, regression, unresolved, no change
}

// judge applies the rule to paired samples: parent[i] and change[i] ran
// as pair i. lowerBetter says which direction is a gain.
func judge(parent, change []float64, lowerBetter bool, bound float64) verdict {
	v := verdict{Pairs: len(parent)}
	v.ParentMed = median(append([]float64(nil), parent...))
	v.ChangeMed = median(append([]float64(nil), change...))
	v.ParentQ1, v.ParentQ3 = quartiles(parent)
	v.ChangeQ1, v.ChangeQ3 = quartiles(change)
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := v.ChangeMed - v.ParentMed // how much worse the change is
	if !lowerBetter {
		worse = -worse
	}
	spread := math.Max((v.ParentQ3-v.ParentQ1)/math.Abs(v.ParentMed), (v.ChangeQ3-v.ChangeQ1)/math.Abs(v.ChangeMed))
	switch {
	case len(parent) < 10:
		v.Call = "unresolved (fewer than 10 pairs)"
	case spread > bound && !allBetter:
		v.Call = "unresolved (spread above bound)"
	case worse > bound*math.Abs(v.ParentMed):
		v.Call = "regression"
	case 10*v.Wins >= 9*v.Pairs && -worse > v.ParentQ3-v.ParentQ1:
		v.Call = "gain"
	default:
		v.Call = "no change"
	}
	return v
}

// compareMain runs compare mode; it returns the process exit code: 0 when
// no metric regressed and every run was correct, 1 otherwise.
func compareMain(opt options, args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "checkout of the parent commit")
	change := fs.String("change", "", "checkout of the change")
	pairs := fs.Int("pairs", 10, "parent/change pairs per workload (at least 10 for a claim)")
	firstSeed := fs.Int64("first-seed", 1, "seed of the first pair; pair i uses first-seed+i on both sides")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" || *change == "" {
		opt.log("compare needs -parent and -change checkouts")
		return 2
	}
	spec, err := readSpec(filepath.Join(*change, "BENCHMARK.json"))
	if err != nil {
		opt.log("%v", err)
		return 2
	}

	code := 0
	for _, w := range spec.Workloads {
		samples := map[string][2][]float64{}
		for i := 0; i < *pairs; i++ {
			sides := [2]string{*parent, *change}
			order := []int{0, 1}
			if i%2 == 1 {
				order = []int{1, 0}
			}
			var got [2]*result
			for _, side := range order {
				r, err := runCheckout(sides[side], w.Name, *firstSeed+int64(i), spec.RunSeconds)
				if err != nil {
					opt.log("%s pair %d (%s): %v", w.Name, i, sides[side], err)
					return 1
				}
				got[side] = r
			}
			if !got[0].Correct || !got[1].Correct || got[1].Failed > got[0].Failed {
				opt.log("%s pair %d: correct %v/%v, failed %d/%d (parent/change)", w.Name, i,
					got[0].Correct, got[1].Correct, got[0].Failed, got[1].Failed)
				code = 1
			}
			for _, m := range spec.EndToEnd {
				s := samples[m.Name]
				s[0] = append(s[0], got[0].Metrics[m.Name].Value)
				s[1] = append(s[1], got[1].Metrics[m.Name].Value)
				samples[m.Name] = s
			}
		}
		fmt.Printf("== %s: %d pairs of %d s runs, alternating order\n", w.Name, *pairs, spec.RunSeconds)
		fmt.Printf("%-14s %-24s %-24s %8s %6s  %s\n", "metric", "parent med [q1, q3]", "change med [q1, q3]", "delta", "wins", "verdict")
		var calls []string
		for _, m := range spec.EndToEnd {
			s := samples[m.Name]
			v := judge(s[0], s[1], m.Better == "lower", m.Bound)
			fmt.Printf("%-14s %-24s %-24s %+7.1f%% %3d/%-2d  %s\n", m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.ParentMed, v.ParentQ1, v.ParentQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", v.ChangeMed, v.ChangeQ1, v.ChangeQ3),
				100*(v.ChangeMed/v.ParentMed-1), v.Wins, v.Pairs, v.Call)
			if v.Call != "no change" {
				calls = append(calls, m.Name+": "+v.Call)
			}
			if v.Call == "regression" {
				code = 1
			}
		}
		if len(calls) == 0 {
			calls = []string{"no change"}
		}
		fmt.Printf("%s row: %s\n\n", w.Name, strings.Join(calls, "; "))
	}
	return code
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.Workloads) == 0 {
		return nil, fmt.Errorf("perfbench: %s names no workloads or metrics", path)
	}
	return &s, nil
}

// runCheckout runs one timed benchmark run in dir and parses its result
// line, the last line of its output. A run whose checks failed exits with
// status 1 after printing the line, so the line is read whatever the
// status; a run that printed none is an error.
func runCheckout(dir, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	// Each checkout builds into its own .bench_build.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "CARGO_TARGET_DIR=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if r.Metrics == nil {
		return nil, errors.New("result line has no metrics")
	}
	return &r, nil
}
