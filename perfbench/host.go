package main

// Host facts recorded in every result file: the numbers only compare on
// like hosts, and the sleep overshoot says how far an open-loop pacer can
// be trusted on this one.

import (
	"crypto/sha256"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	// Sleep50usOvershootP50US and P99US: how late time.Sleep(50µs)
	// returns, over sleepSamples sleeps.
	Sleep50usOvershootP50US float64 `json:"sleep_50us_overshoot_p50_us"`
	Sleep50usOvershootP99US float64 `json:"sleep_50us_overshoot_p99_us"`
	// CPURefMS is the median time to hash 4 MiB, a fixed amount of work
	// no change to this repository can speed up: it tracks how fast the
	// host runs at the time of the run (shared hosts drift).
	CPURefMS    float64 `json:"cpu_ref_ms"`
	CPURefEndMS float64 `json:"cpu_ref_end_ms"` // the same, after the run
}

const sleepSamples = 200

func measureHost() hostFacts {
	h := hostFacts{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
	}
	over := make([]int64, sleepSamples)
	for i := range over {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		over[i] = int64(time.Since(t0) - 50*time.Microsecond)
	}
	h.Sleep50usOvershootP50US = float64(nearestRank(over, 0.50)) / 1e3
	h.Sleep50usOvershootP99US = float64(nearestRank(over, 0.99)) / 1e3
	h.CPURefMS = cpuRefMS()
	return h
}

func cpuRefMS() float64 {
	buf := make([]byte, 1<<20)
	ms := make([]float64, 15)
	for i := range ms {
		t0 := time.Now()
		for j := 0; j < 4; j++ {
			sha256.Sum256(buf)
		}
		ms[i] = float64(time.Since(t0).Microseconds()) / 1e3
	}
	return median(ms)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's commit, or "unknown" when the checkout is
// not the root of a git work tree (git would otherwise report an
// enclosing repository's commit).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
