package sim

import (
	"reflect"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/faults"
	"nvramfs/internal/prep"
)

// shardCounts is the spread the equivalence tests sweep: degenerate,
// even, more shards than some traces have clients, and a prime that
// misaligns with every client-id pattern.
var shardCounts = []int{1, 2, 8, 17}

func shardModelConfigs() []Config {
	return []Config{
		{Model: cache.ModelVolatile, Cache: cache.Config{VolatileBlocks: 128, Policy: cache.LRU}, Seed: 42},
		{Model: cache.ModelWriteAside, Cache: cache.Config{VolatileBlocks: 128, NVRAMBlocks: 32, Policy: cache.LRU}, Seed: 42},
		{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 128, NVRAMBlocks: 32, Policy: cache.LRU}, Seed: 42},
		{Model: cache.ModelHybrid, Cache: cache.Config{VolatileBlocks: 128, NVRAMBlocks: 32, Policy: cache.LRU}, Seed: 42},
		// The random policy exercises the per-client seed derivation,
		// which must not depend on model-creation order across shards.
		{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 64, NVRAMBlocks: 16, Policy: cache.Random}, Seed: 7},
	}
}

// TestRunShardedMatchesSequential holds the client-sharded runner equal
// to the sequential one — full Result, per-client traffic included —
// across traces, all four cache organizations, and every shard count.
// RunSharded runs its shard bodies on their own goroutines, so the -race
// pass sees any sharing between shards.
func TestRunShardedMatchesSequential(t *testing.T) {
	for _, tr := range []int{2, 7} {
		ops := traceOps(t, tr, 0.02)
		rep := prep.SliceReplayable(ops)
		for _, cfg := range shardModelConfigs() {
			want, err := RunOps(ops, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range shardCounts {
				got, err := RunSharded(rep, cfg, k)
				if err != nil {
					t.Fatalf("trace %d %v shards=%d: %v", tr, cfg.Model, k, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace %d %v shards=%d: sharded result diverges\n got %+v\nwant %+v",
						tr, cfg.Model, k, got, want)
				}
			}
		}
	}
}

// TestShardedBroadcastMatchesSequential shards the lockstep Broadcast the
// way the Figure 3/4 drivers do: K yoked rows, each owning one client
// shard, merged per NVRAM size, against the unsharded broadcast.
func TestShardedBroadcastMatchesSequential(t *testing.T) {
	ops := traceOps(t, 7, 0.02)
	cfgs := broadcastConfigs(nil, true)
	want := runBroadcast(t, ops, cfgs)
	for _, k := range shardCounts {
		perShard := make([][]*Result, k)
		for s := 0; s < k; s++ {
			scfgs := make([]Config, len(cfgs))
			for i, cfg := range cfgs {
				cfg.Shard = ShardSel{Index: s, Shards: k}
				scfgs[i] = cfg
			}
			perShard[s] = runBroadcast(t, ops, scfgs)
		}
		for i := range cfgs {
			row := make([]*Result, k)
			for s := 0; s < k; s++ {
				row[s] = perShard[s][i]
			}
			got, err := MergeShardResults(row)
			if err != nil {
				t.Fatalf("shards=%d config %d: %v", k, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("shards=%d config %d: merged broadcast diverges", k, i)
			}
		}
	}
}

// TestRunShardedRejectsCoupledState checks the validation gates: fault
// injection and caller hooks couple shards through shared observers.
func TestRunShardedRejectsCoupledState(t *testing.T) {
	rep := prep.SliceReplayable{openOp(0, 1, 5, true)}
	base := Config{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 8, NVRAMBlocks: 8}}

	cfg := base
	cfg.Faults = &faults.Profile{}
	if _, err := RunSharded(rep, cfg, 2); err == nil {
		t.Error("fault injection accepted in sharded run")
	}
	cfg = base
	cfg.Cache.Hooks = &cache.ServerHooks{}
	if _, err := RunSharded(rep, cfg, 2); err == nil {
		t.Error("hooks accepted in sharded run")
	}
	if _, err := MergeShardResults(nil); err == nil {
		t.Error("empty merge accepted")
	}
}
