package sim

import (
	"reflect"
	"testing"

	"nvramfs/internal/cache"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/prep"
)

// broadcastConfigs is a spread of NVRAM sizes, models, and policies the
// equivalence tests sweep.
func broadcastConfigs(sched cache.Schedule, writesOnly bool) []Config {
	var cfgs []Config
	for _, nv := range []int{1, 8, 64, 512} {
		cfg := Config{
			Model: cache.ModelUnified,
			Cache: cache.Config{
				VolatileBlocks: 128,
				NVRAMBlocks:    nv,
				Policy:         cache.LRU,
			},
			Seed:       42,
			WritesOnly: writesOnly,
		}
		if sched != nil {
			cfg.Cache.Policy = cache.Omniscient
			cfg.Cache.Schedule = sched
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// runBroadcast drives ops through fresh steppers yoked by a Broadcast.
func runBroadcast(t *testing.T, ops []prep.Op, cfgs []Config) []*Result {
	t.Helper()
	steppers := make([]*Stepper, len(cfgs))
	for i, cfg := range cfgs {
		steppers[i] = NewStepper(nil, cfg)
	}
	bc, err := NewBroadcast(steppers)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := bc.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*Result, len(steppers))
	for i, s := range steppers {
		out[i] = s.Finish()
		s.Release()
	}
	return out
}

// TestBroadcastMatchesIndependentRuns holds a Broadcast row equal to
// independent sim.Run passes, configuration by configuration, across
// models, policies, and both WritesOnly settings, on a trace with every
// op kind (writes, reads, deletes, fsyncs, migrations, shared files).
func TestBroadcastMatchesIndependentRuns(t *testing.T) {
	ops := traceOps(t, 7, 0.02)
	sched, err := lifetime.BuildSchedule(prep.NewSliceSource(ops), cache.DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		sched      cache.Schedule
		writesOnly bool
	}{
		{"lru", nil, false},
		{"lru-writes-only", nil, true},
		{"omniscient-writes-only", sched, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := broadcastConfigs(tc.sched, tc.writesOnly)
			got := runBroadcast(t, ops, cfgs)
			for i, cfg := range cfgs {
				want, err := RunOps(ops, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("config %d (nv=%d): broadcast result diverges\n got %+v\nwant %+v",
						i, cfg.Cache.NVRAMBlocks, got[i], want)
				}
			}
		})
	}
}

// TestBroadcastMatchesHybridModel covers the remaining broadcast-eligible
// model kinds.
func TestBroadcastMatchesHybridModel(t *testing.T) {
	ops := traceOps(t, 2, 0.02)
	for _, model := range []cache.ModelKind{cache.ModelWriteAside, cache.ModelHybrid} {
		cfgs := []Config{
			{Model: model, Cache: cache.Config{VolatileBlocks: 64, NVRAMBlocks: 16, Policy: cache.LRU}, Seed: 9},
			{Model: model, Cache: cache.Config{VolatileBlocks: 256, NVRAMBlocks: 128, Policy: cache.LRU}, Seed: 9},
		}
		got := runBroadcast(t, ops, cfgs)
		for i, cfg := range cfgs {
			want, err := RunOps(ops, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%v config %d: broadcast result diverges", model, i)
			}
		}
	}
}

// TestBroadcastRejectsUnsupported checks the validation gates.
func TestBroadcastRejectsUnsupported(t *testing.T) {
	if _, err := NewBroadcast(nil); err == nil {
		t.Error("empty stepper list accepted")
	}
	vol := NewStepper(nil, Config{Model: cache.ModelVolatile, Cache: cache.Config{VolatileBlocks: 8}})
	if _, err := NewBroadcast([]*Stepper{vol}); err == nil {
		t.Error("volatile model accepted")
	}
	a := NewStepper(nil, Config{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 8, NVRAMBlocks: 8}})
	b := NewStepper(nil, Config{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 8, NVRAMBlocks: 8}, WritesOnly: true})
	if _, err := NewBroadcast([]*Stepper{a, b}); err == nil {
		t.Error("mixed WritesOnly accepted")
	}
	used := NewStepper(nil, Config{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 8, NVRAMBlocks: 8}})
	if err := used.Apply(openOp(0, 1, 5, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBroadcast([]*Stepper{used}); err == nil {
		t.Error("non-fresh stepper accepted")
	}
}

// TestBroadcastTouchedIndexDrainsOnDelete churns many distinct files
// through create, write, read, partial delete and whole-file delete on a
// width-2 lockstep: every whole-file delete must retire the file's
// touched-client entry along with its size, so a long-lived stepper's
// per-file state stays bounded by the live file set.
func TestBroadcastTouchedIndexDrainsOnDelete(t *testing.T) {
	cfg := Config{Model: cache.ModelUnified, Cache: cache.Config{VolatileBlocks: 16, NVRAMBlocks: 8}}
	bc, err := NewBroadcast([]*Stepper{NewStepper(nil, cfg), NewStepper(nil, cfg)})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for f := uint64(1); f <= 2000; f++ {
		writer, reader := uint32(f%5), uint32(f%5+1)
		for _, op := range []prep.Op{
			openOp(now, writer, f, true),
			wop(now+1, writer, prep.Write, f, 0, 12288),
			{Time: now + 2, Client: writer, Kind: prep.Close, File: f},
			openOp(now+3, reader, f, false),
			wop(now+4, reader, prep.Read, f, 0, 12288),
			{Time: now + 5, Client: reader, Kind: prep.Close, File: f},
			wop(now+6, writer, prep.DeleteRange, f, 4096, 12288),
			wop(now+7, writer, prep.DeleteRange, f, 0, 4096),
		} {
			if err := bc.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		now += 10
	}
	if n := len(bc.ls.touched); n != 0 {
		t.Fatalf("touched index holds %d deleted files", n)
	}
	if n := len(bc.ls.sizes); n != 0 {
		t.Fatalf("size table holds %d deleted files", n)
	}
}
