package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"nvramfs"
)

// ShardSpeedup is the parallel-pipeline evidence: the Figure 2 and
// Figure 3 sweeps rendered on a one-worker engine (-j 1, so client-shard
// width 1) and again on a worker pool, with the renders byte-compared
// and both runs timed. OutputIdentical is the correctness half of the
// record and must always be true; Speedup is the performance half and
// only means anything when the box has the cores (NumCPU).
type ShardSpeedup struct {
	Scale           float64 `json:"scale"`
	NumCPU          int     `json:"num_cpu"`
	Workers         int     `json:"workers"`
	ShardWidth      int     `json:"shard_width"`
	SequentialNs    int64   `json:"sequential_ns"`
	ShardedNs       int64   `json:"sharded_ns"`
	Speedup         float64 `json:"speedup"`
	OutputIdentical bool    `json:"output_identical"`
}

// renderShardTargets renders Figure 2 (one lifetime analysis per trace,
// parallel across traces) and Figure 3 (client-sharded broadcast rows,
// at shard width min(8, workers)) on an engine of the given worker
// count, returning the rendered bytes and the wall-clock time.
func renderShardTargets(scale float64, workers int) (string, time.Duration, error) {
	ws := nvramfs.NewWorkspace(scale)
	ws.SetEngine(nvramfs.NewEngine(workers))
	var buf bytes.Buffer
	start := time.Now()
	f2, err := nvramfs.Figure2(ws)
	if err != nil {
		return "", 0, err
	}
	if err := f2.Render(&buf); err != nil {
		return "", 0, err
	}
	f3, err := nvramfs.Figure3(ws)
	if err != nil {
		return "", 0, err
	}
	if err := f3.Render(&buf); err != nil {
		return "", 0, err
	}
	return buf.String(), time.Since(start), nil
}

// measureShardSpeedup times the one-worker and pooled renders and
// byte-compares their output. workers <= 0 picks GOMAXPROCS.
func measureShardSpeedup(scale float64, workers int) (*ShardSpeedup, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seqOut, seqT, err := renderShardTargets(scale, 1)
	if err != nil {
		return nil, fmt.Errorf("sequential render: %w", err)
	}
	shardOut, shardT, err := renderShardTargets(scale, workers)
	if err != nil {
		return nil, fmt.Errorf("sharded render: %w", err)
	}
	ws := nvramfs.NewWorkspace(scale)
	ws.SetEngine(nvramfs.NewEngine(workers))
	return &ShardSpeedup{
		Scale:           scale,
		NumCPU:          runtime.NumCPU(),
		Workers:         workers,
		ShardWidth:      ws.ShardWidth(),
		SequentialNs:    int64(seqT),
		ShardedNs:       int64(shardT),
		Speedup:         float64(seqT) / float64(shardT),
		OutputIdentical: seqOut == shardOut,
	}, nil
}
