package sim

import (
	"fmt"
	"sync"

	"nvramfs/internal/cache"
	"nvramfs/internal/prep"
)

// RunSharded simulates a canonical op stream by client shards: K
// steppers, each owning the clients with id % K == k, every one
// replaying a fresh cursor over the full stream on its own goroutine,
// merged into the exact sequential Result (see ShardSel for why the
// decomposition is exact). shards <= 1 degenerates to Run.
//
// With more than one shard, fault injection and caller hooks are
// rejected: the fault stage feeds cache-dependent write-backs into the
// server's replay detector (so shard replicas would diverge), and hooks
// would observe per-shard streams in nondeterministic interleavings.
func RunSharded(rep prep.Replayable, cfg Config, shards int) (*Result, error) {
	if shards <= 1 {
		src, err := rep.Ops()
		if err != nil {
			return nil, err
		}
		return Run(src, cfg)
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("sim: sharded run cannot inject faults")
	}
	if cfg.Cache.Hooks != nil {
		return nil, fmt.Errorf("sim: sharded run cannot install hooks")
	}
	results := make([]*Result, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for k := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[k], errs[k] = runShard(rep, cfg, ShardSel{Index: k, Shards: shards})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return MergeShardResults(results)
}

// runShard simulates one client shard over a fresh cursor.
func runShard(rep prep.Replayable, cfg Config, sel ShardSel) (*Result, error) {
	if err := sel.validate(); err != nil {
		return nil, err
	}
	src, err := rep.Ops()
	if err != nil {
		return nil, err
	}
	cfg.Shard = sel
	// Arenas are single-goroutine free lists; each shard must build its
	// own rather than share the caller's.
	cfg.Cache.Arena = cache.NewBlockArena()
	return Run(src, cfg)
}

// MergeShardResults combines per-shard results into the sequential
// Result: traffic sums field-wise in shard order (all counters are
// int64 sums over disjoint client sets, so the merge is exact), the
// per-client maps union disjointly, and the replicated server counters
// are cross-checked for agreement — a mismatch means a shard's protocol
// replica diverged, which is a bug, not a tolerable approximation.
func MergeShardResults(results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("sim: merging no shard results")
	}
	merged := &Result{
		PerClient:      make(map[uint32]*cache.Traffic),
		Recalls:        results[0].Recalls,
		DisableEvents:  results[0].DisableEvents,
		ReplayedWrites: results[0].ReplayedWrites,
		EndTime:        results[0].EndTime,
	}
	for k, res := range results {
		if res == nil {
			return nil, fmt.Errorf("sim: shard %d produced no result", k)
		}
		if res.Recalls != merged.Recalls || res.DisableEvents != merged.DisableEvents ||
			res.ReplayedWrites != merged.ReplayedWrites || res.EndTime != merged.EndTime {
			return nil, fmt.Errorf("sim: shard %d server replica diverged (recalls %d/%d, disables %d/%d)",
				k, res.Recalls, merged.Recalls, res.DisableEvents, merged.DisableEvents)
		}
		merged.Traffic.Add(&res.Traffic)
		for c, t := range res.PerClient {
			if _, dup := merged.PerClient[c]; dup {
				return nil, fmt.Errorf("sim: client %d appears in two shards", c)
			}
			merged.PerClient[c] = t
		}
	}
	return merged, nil
}
