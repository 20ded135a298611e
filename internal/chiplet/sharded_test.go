package chiplet

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// sharedStreamWorkload makes every warp stream over the same region, so
// first-touch ownership concentrates on the earliest chiplets and most
// accesses from the others are remote — worst case for cross-shard traffic.
func sharedStreamWorkload(ctas, warps, loads int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "mcm-shared-stream",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warps},
		Factory: func(cta, warp int) trace.Program {
			g := &trace.SeqGen{Base: 0, Stride: 128, Extent: 1 << 18}
			return trace.NewPhaseProgram(trace.Phase{N: loads * 3, ComputePer: 2, Gen: g})
		},
	}
}

// randomTrafficWorkload scatters every warp's loads uniformly over a small
// shared region (deterministically seeded per warp): pages interleave
// across chiplets, so every shard keeps injecting NoC/DRAM traffic into
// every other shard — the randomized stress cell the race gate runs.
func randomTrafficWorkload(ctas, warps, loads int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "mcm-random-traffic",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warps},
		Factory: func(cta, warp int) trace.Program {
			seed := uint64(cta)<<16 | uint64(warp) | 1
			g := trace.NewRandGen(0, 128, 1<<20, seed)
			return trace.NewPhaseProgram(trace.Phase{N: loads * 2, ComputePer: 1, Gen: g})
		},
	}
}

// TestShardedMatchesSequential is the tentpole's bit-identity contract:
// the same simulation at Shards=1 (sequential event loop) and Shards=N
// must produce identical Stats, across workload shapes, CTA schedulers, a
// real benchmark, sub-horizon DRAM latencies, and shard counts that divide
// the chiplets evenly and unevenly.
func TestShardedMatchesSequential(t *testing.T) {
	bfs, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name  string
		cfg   config.ChipletConfig
		w     func() trace.Workload
		sched string
	}{
		{"compute/4c", smallMCM(4, 2), func() trace.Workload { return computeWorkload(32, 2, 50) }, ""},
		{"stream/4c", smallMCM(4, 2), func() trace.Workload { return streamWorkload(32, 2, 30) }, ""},
		{"shared/4c", smallMCM(4, 2), func() trace.Workload { return sharedStreamWorkload(32, 2, 30) }, ""},
		{"shared/contiguous", smallMCM(4, 2), func() trace.Workload { return sharedStreamWorkload(32, 2, 30) }, "contiguous"},
		{"random/4c", smallMCM(4, 2), func() trace.Workload { return randomTrafficWorkload(24, 2, 20) }, ""},
		{"bfs/4c", config.MustScaleChiplets(config.Target16Chiplet(), 4), func() trace.Workload { return bfs.Workload }, ""},
		{"stream/horizon-dram", horizonMCM(4, 2, 15), func() trace.Workload { return streamWorkload(32, 2, 30) }, ""},
		{"stream/mshr-stall", mshrStallMCM(4, 2, 4), func() trace.Workload { return streamWorkload(64, 4, 30) }, ""},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			if c.sched != "" {
				cfg.CTAScheduler = c.sched
			}
			run := func(opt Options) Stats {
				t.Helper()
				s, err := New(cfg, c.w(), opt)
				if err != nil {
					t.Fatal(err)
				}
				st, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			seq := run(Options{})
			for _, shards := range []int{2, 3, 4} {
				if got := run(Options{Shards: shards}); got != seq {
					t.Errorf("shards=%d stats diverge\nsharded    %+v\nsequential %+v", shards, got, seq)
				}
			}
			// One leg on a single processor: the shard pool may not spin
			// there, so its yield and park stages carry the protocol — the
			// path a 1-core CI runner takes and a 2-core host never does.
			// The real benchmark sits it out: tens of seconds there, and no
			// protocol path the synthetic cells lack.
			if strings.HasPrefix(c.name, "bfs/") {
				return
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			if got := run(Options{Shards: 3}); got != seq {
				t.Errorf("GOMAXPROCS=1 shards=3 stats diverge\nsharded    %+v\nsequential %+v", got, seq)
			}
		})
	}
}

// TestShardedRandomCrossTrafficStress is the larger randomized cross-shard
// cell: heavier traffic over more chiplets, meant to run under the race
// detector (make race) to check the phase discipline on a real workload.
func TestShardedRandomCrossTrafficStress(t *testing.T) {
	cfg := smallMCM(8, 2)
	run := func(opt Options) Stats {
		t.Helper()
		s, err := New(cfg, randomTrafficWorkload(48, 2, 25), opt)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq := run(Options{})
	for _, shards := range []int{2, 4, 8} {
		if got := run(Options{Shards: shards}); got != seq {
			t.Errorf("shards=%d stats diverge\nsharded    %+v\nsequential %+v", shards, got, seq)
		}
	}
}

// TestShardsValidation pins the option's edge cases: negatives rejected,
// legacy+shards rejected, counts beyond NumChiplets clamped (and still
// bit-identical), and 0/1 selecting the plain sequential loop.
func TestShardsValidation(t *testing.T) {
	cfg := smallMCM(2, 2)
	w := func() trace.Workload { return streamWorkload(8, 2, 10) }
	if _, err := New(cfg, w(), Options{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := New(cfg, w(), Options{Shards: 2, UseLegacyLoop: true}); err == nil {
		t.Error("Shards with UseLegacyLoop accepted")
	}
	for _, n := range []int{0, 1} {
		s, err := New(cfg, w(), Options{Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		if s.shards != nil {
			t.Errorf("Shards=%d built shard runners", n)
		}
	}
	s, err := New(cfg, w(), Options{Shards: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.shards) != cfg.NumChiplets {
		t.Fatalf("Shards=99 on %d chiplets built %d shards", cfg.NumChiplets, len(s.shards))
	}
	clamped, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(cfg, w())
	if err != nil {
		t.Fatal(err)
	}
	if clamped != seq {
		t.Errorf("clamped sharded run diverged\nsharded    %+v\nsequential %+v", clamped, seq)
	}
}

// TestShardedMaxCyclesAborts mirrors TestMaxCyclesAborts for the sharded
// loop, and checks context cancellation unwinds the worker pool cleanly.
func TestShardedMaxCyclesAborts(t *testing.T) {
	s, err := New(smallMCM(2, 2), streamWorkload(64, 2, 50), Options{Shards: 2, MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("MaxCycles exceeded without error")
	}

	s2, err := New(smallMCM(2, 2), streamWorkload(64, 2, 50), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s2.RunContext(ctx); err == nil {
		t.Error("cancelled context did not abort the sharded run")
	}
}
