package main

// The repro workload: the paper's client experiments over the eight
// standard traces and the Section 3 server study, rendered in process
// through the nvramfs facade exactly as nvreport renders them.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"nvramfs"
	"nvramfs/internal/workload"
)

const (
	reproScale      = 0.5
	reproServerDays = 7
	reproWorkers    = 2
	// reproDigest is the SHA-256 of the stdout of
	//	nvreport -scale 0.5 -server-days 7 -exp fig2,table2,fig3,fig4,fig5,fig6,bus,table3,table4,buffer
	// at -j 1 and -j 2; the in-process render must match it byte for byte.
	reproDigest = "3f8964013f17f1900e95eec6c79c698d9c76f81db7af6f6ebb57b2e2859aae61"
)

// reproExperiments are the experiments repro renders, each with the name
// of its span in the traced run; table3, table4 and buffer render one
// server study, so they share report.server.
var reproExperiments = map[string]string{
	"fig2": "report.fig2", "table2": "report.table2", "fig3": "report.fig3", "fig4": "report.fig4",
	"fig5": "report.fig5", "fig6": "report.fig6", "bus": "report.bus",
	"table3": "report.server", "table4": "report.server", "buffer": "report.server",
}

func days24(days float64) time.Duration { return time.Duration(days * float64(24*time.Hour)) }

// renderRepro writes what nvreport writes to stdout for reproExperiments,
// in the registry's order, and returns the server study behind table3, table4 and buffer. Each
// experiment runs inside timed(span, fn).
func renderRepro(ctx context.Context, ws *nvramfs.Workspace, eng *nvramfs.Engine, w io.Writer, days float64,
	timed func(name string, fn func() error) error) (*nvramfs.ServerStudyResult, error) {
	var study *nvramfs.ServerStudyResult
	server := func(render func(*nvramfs.ServerStudyResult, io.Writer) error) func() error {
		return func() error {
			if study == nil {
				var err error
				if study, err = nvramfs.ServerStudyContext(ctx, eng, days24(days)); err != nil {
					return err
				}
			}
			return render(study, w)
		}
	}
	type renderer interface{ Render(io.Writer) error }
	result := func(get func() (renderer, error)) func() error {
		return func() error {
			r, err := get()
			if err != nil {
				return err
			}
			return r.Render(w)
		}
	}
	runners := map[string]func() error{
		"fig2":   result(func() (renderer, error) { return nvramfs.Figure2Context(ctx, ws) }),
		"table2": result(func() (renderer, error) { return nvramfs.Table2Context(ctx, ws) }),
		"fig3":   result(func() (renderer, error) { return nvramfs.Figure3Context(ctx, ws) }),
		"fig4":   result(func() (renderer, error) { return nvramfs.Figure4Context(ctx, ws) }),
		"fig5":   result(func() (renderer, error) { return nvramfs.Figure5Context(ctx, ws) }),
		"fig6":   result(func() (renderer, error) { return nvramfs.Figure6Context(ctx, ws) }),
		"bus":    result(func() (renderer, error) { return nvramfs.BusTrafficContext(ctx, ws) }),
		"table3": server((*nvramfs.ServerStudyResult).RenderTable3),
		"table4": server((*nvramfs.ServerStudyResult).RenderTable4),
		"buffer": server((*nvramfs.ServerStudyResult).RenderBuffer),
	}
	for _, e := range nvramfs.Experiments() {
		run, ok := runners[e.Name]
		if !ok {
			continue
		}
		if _, err := fmt.Fprintf(w, "\n===== %s (%s) =====\n", e.Name, e.Desc); err != nil {
			return nil, err
		}
		if err := timed(reproExperiments[e.Name], run); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return study, nil
}

// reproRep is one set-up plus render.
type reproRep struct {
	setup, render time.Duration
	digest        string
	jobs          []int64 // engine job latencies, ns
	eng           nvramfs.EngineMetrics
	study         *nvramfs.ServerStudyResult
}

// jobClock times engine jobs through the engine's hooks, which the
// engine serializes. Grids run one at a time, so a job index identifies
// the running job.
type jobClock struct {
	started map[int]time.Time
	lat     []int64
	tr      *tracer // optional: a span per job under parent
	parent  int
}

func (j *jobClock) hooks() nvramfs.EngineHooks {
	j.started = map[int]time.Time{}
	return nvramfs.EngineHooks{
		JobStarted: func(i, n int) { j.started[i] = time.Now() },
		JobFinished: func(i, n int, err error) {
			t0, now := j.started[i], time.Now()
			delete(j.started, i)
			j.lat = append(j.lat, int64(now.Sub(t0)))
			if j.tr != nil {
				j.tr.add("engine.job", j.parent, int64(i), t0, now)
			}
		},
	}
}

// reproOnce builds a fresh workspace (set-up), renders the experiments
// into a hash, and reports both times. With tr set, it records a span per
// experiment and per engine job.
func reproOnce(ctx context.Context, scale, days float64, tr *tracer) (*reproRep, error) {
	eng := nvramfs.NewEngine(reproWorkers)
	clock := &jobClock{tr: tr}
	eng.SetHooks(clock.hooks())
	t0 := time.Now()
	ws := nvramfs.NewWorkspace(scale)
	ws.SetEngine(eng)
	for tr := 1; tr <= workload.NumStandardTraces; tr++ {
		if _, err := ws.TraceStats(tr); err != nil {
			return nil, err
		}
	}
	rep := &reproRep{setup: time.Since(t0)}

	h := sha256.New()
	timed := func(name string, fn func() error) error { return fn() }
	if tr != nil {
		timed = func(name string, fn func() error) error {
			clock.parent = tr.begin(name, -1, -1)
			err := fn()
			tr.end(clock.parent)
			return err
		}
	}
	t1 := time.Now()
	study, err := renderRepro(ctx, ws, eng, h, days, timed)
	if err != nil {
		return nil, err
	}
	rep.study = study
	rep.render = time.Since(t1)
	rep.digest = hex.EncodeToString(h.Sum(nil))
	rep.jobs = clock.lat
	rep.eng = eng.Metrics()
	return rep, nil
}

// repOut is one render measured in a child process, as the child reports
// it on standard output.
type repOut struct {
	SetupS, RenderS float64
	Digest          string
	JobsNS          []int64
	JobsFinished    int64
	PeakMB          float64 // the child's VmHWM: this render's peak alone
}

// reproRepMain is the child side: one set-up and render, reported as JSON.
func reproRepMain() int {
	rep, err := reproOnce(context.Background(), reproScale, reproServerDays, nil)
	if err == nil {
		var out repOut
		out.PeakMB, err = peakRSSMB("/proc/self/status")
		out.SetupS, out.RenderS, out.Digest = rep.setup.Seconds(), rep.render.Seconds(), rep.digest
		out.JobsNS, out.JobsFinished = rep.jobs, rep.eng.JobsFinished
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(out)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: repro render: %v\n", err)
		return 1
	}
	return 0
}

// runRep runs one render in a fresh child process, so that each render
// starts from an empty heap and reports its own peak memory.
func runRep() (*repOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "repro-rep")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("perfbench: repro render child: %w", err)
	}
	var out repOut
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("perfbench: repro render child: %w", err)
	}
	return &out, nil
}

// repro runs the repro workload: renders, each in its own process, until
// the run's time is up; every figure is the median over the renders.
func repro(opt options, traced bool) (*result, map[string]any, error) {
	if traced {
		return reproTraced(opt)
	}
	var setups, renders, rates, p50s, p99s, peaks []float64
	jobs := 0
	var reps int64
	correct := true
	start := time.Now()
	for reps == 0 || time.Since(start) < opt.seconds {
		rep, err := runRep()
		if err != nil {
			return nil, nil, err
		}
		reps++
		if rep.Digest != reproDigest {
			opt.log("repro: render digest %s, want %s", rep.Digest, reproDigest)
			correct = false
		}
		setups = append(setups, rep.SetupS)
		renders = append(renders, rep.RenderS)
		rates = append(rates, float64(rep.JobsFinished)/rep.RenderS)
		peaks = append(peaks, rep.PeakMB)
		jobs += len(rep.JobsNS)
		p50s = append(p50s, float64(nearestRank(rep.JobsNS, 0.50))/1e3)
		p99s = append(p99s, float64(nearestRank(rep.JobsNS, 0.99))/1e3)
	}
	tail := tailPercentile(jobs/int(reps), 0.5, 0.9, 0.95, 0.99)
	opt.log("repro: %d renders, %d engine jobs timed; highest percentile with 10 beyond it per render: p%g", reps, jobs, 100*tail)
	res := &result{
		Correct:   correct,
		Attempted: reps * int64(len(reproExperiments)),
		Failed:    0, // an experiment that errors ends the run
		Metrics: map[string]metric{
			"setup_s":     {median(setups), "s"},
			"repro_s":     {median(renders), "s"},
			"ops_per_s":   {median(rates), "ops/s"},
			"p50_us":      {median(p50s), "us"},
			"peak_mem_mb": {median(peaks), "MiB"},
		},
	}
	return res, map[string]any{"setup_s": setups, "repro_s": renders, "jobs_per_s": rates, "peak_mem_mb": peaks,
		"job_p50_us": p50s, "job_p99_us": p99s, "job_samples": jobs, "tail_percentile": tail}, nil
}
