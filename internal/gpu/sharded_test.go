package gpu

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/obs"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// randomTrafficWorkload scatters every warp's loads uniformly over a shared
// region (deterministically seeded per warp): lines interleave across LLC
// slices and MSHR merges, full-MSHR pushback and DRAM jitter all fire, so
// every shard keeps injecting traffic into the shared post-L1 path — the
// randomized stress cell the race gate runs.
func randomTrafficWorkload(ctas, warps, loads int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "gpu-random-traffic",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warps},
		Factory: func(cta, warp int) trace.Program {
			seed := uint64(cta)<<16 | uint64(warp) | 1
			g := trace.NewRandGen(0, 128, 1<<20, seed)
			return trace.NewPhaseProgram(trace.Phase{N: loads * 2, ComputePer: 1, Gen: g})
		},
	}
}

// TestGPUShardedMatchesSequential is the tentpole's bit-identity contract
// for the monolithic simulator: the same simulation at Shards=1 (sequential
// event loop) and Shards=N must produce identical Stats — across workload
// shapes, a real benchmark, warm-up resets, kernel sequences, sampling, and
// the no-skip ablation.
func TestGPUShardedMatchesSequential(t *testing.T) {
	bfs, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name string
		cfg  config.SystemConfig
		mk   func() []trace.Workload
		base Options
	}{
		{"compute/16sm", testConfig(16), func() []trace.Workload {
			return []trace.Workload{computeWorkload(48, 2, 60)}
		}, Options{}},
		{"stream/16sm", testConfig(16), func() []trace.Workload {
			return []trace.Workload{streamWorkload(48, 2, 40)}
		}, Options{}},
		{"reuse/16sm", testConfig(16), func() []trace.Workload {
			return []trace.Workload{reuseWorkload(48, 2, 1<<18, 40, 0)}
		}, Options{}},
		{"random/16sm", testConfig(16), func() []trace.Workload {
			return []trace.Workload{randomTrafficWorkload(32, 2, 25)}
		}, Options{}},
		{"bfs/16sm", testConfig(16), func() []trace.Workload {
			return []trace.Workload{bfs.Workload}
		}, Options{}},
		{"stream/warmup", testConfig(16), func() []trace.Workload {
			return []trace.Workload{streamWorkload(48, 2, 40)}
		}, Options{WarmupInstructions: 1500}},
		{"stream/noskip", testConfig(8), func() []trace.Workload {
			return []trace.Workload{streamWorkload(24, 2, 25)}
		}, Options{DisableEventSkip: true}},
		{"stream/mshr-stall", mshrStallConfig(8, 4), func() []trace.Workload {
			return []trace.Workload{streamWorkload(64, 4, 40)}
		}, Options{}},
		{"stream/wide-sm", wideSMConfig(8), func() []trace.Workload {
			return []trace.Workload{streamWorkload(256, 4, 20)}
		}, Options{}},
		{"sequence/2kernels", testConfig(16), func() []trace.Workload {
			return []trace.Workload{
				streamWorkload(32, 2, 30),
				reuseWorkload(32, 2, 1<<18, 30, 0),
			}
		}, Options{}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			run := func(opt Options) Stats {
				t.Helper()
				s, err := NewSequence(c.cfg, c.mk(), opt)
				if err != nil {
					t.Fatal(err)
				}
				st, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			seq := run(c.base)
			for _, shards := range []int{2, 3, 4} {
				opt := c.base
				opt.Shards = shards
				if got := run(opt); got != seq {
					t.Errorf("shards=%d stats diverge\nsharded    %+v\nsequential %+v",
						shards, got, seq)
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
			opt := c.base
			opt.Shards = 3
			if got := run(opt); got != seq {
				t.Errorf("GOMAXPROCS=1 shards=3 stats diverge\nsharded    %+v\nsequential %+v", got, seq)
			}
		})
	}
}

// TestGPUShardedSamplesMatchSequential: the interval sampler reads MSHR
// occupancy between phases, when a deferring cycle's allocations are still
// waiting for the owning shards' next applyFixups — the sharded loop lands
// them before sampling, so the sample series (every cycle here, to hit the
// cycle after each deferral) equals the sequential one value for value.
func TestGPUShardedSamplesMatchSequential(t *testing.T) {
	cfg := testConfig(8)
	samples := func(opt Options) []obs.Sample {
		t.Helper()
		rec := obs.New()
		opt.Recorder = rec
		opt.SampleEvery = 1
		if _, err := RunWithOptions(cfg, randomTrafficWorkload(16, 2, 12), opt); err != nil {
			t.Fatal(err)
		}
		return rec.Samples()
	}
	seq := samples(Options{})
	if len(seq) == 0 {
		t.Fatal("no samples recorded")
	}
	if got := samples(Options{Shards: 3}); !reflect.DeepEqual(got, seq) {
		t.Errorf("shards=3: sample series diverges from sequential (%d vs %d samples)", len(got), len(seq))
	}
}

// TestGPUShardedRandomCrossTrafficStress is the larger randomized cell:
// heavier shared-LLC traffic over more SMs, shard counts that divide the
// SMs evenly and unevenly — meant to run under the race detector (make
// race) to check the phase discipline on a real workload.
func TestGPUShardedRandomCrossTrafficStress(t *testing.T) {
	cfg := testConfig(16)
	run := func(opt Options) Stats {
		t.Helper()
		st, err := RunWithOptions(cfg, randomTrafficWorkload(64, 2, 30), opt)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq := run(Options{})
	for _, shards := range []int{2, 5, 8, 16} {
		if got := run(Options{Shards: shards}); got != seq {
			t.Errorf("shards=%d stats diverge\nsharded    %+v\nsequential %+v", shards, got, seq)
		}
	}
}

// TestGPUShardsValidation pins the option edge cases on the monolithic
// simulator: negatives rejected, legacy+shards rejected, counts beyond
// NumSMs clamped (and still bit-identical), 0/1 selecting the plain
// sequential loop.
func TestGPUShardsValidation(t *testing.T) {
	cfg := testConfig(8)
	w := func() trace.Workload { return streamWorkload(16, 2, 10) }
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
	if len(s.shards) != cfg.NumSMs {
		t.Fatalf("Shards=99 on %d SMs built %d shards", cfg.NumSMs, len(s.shards))
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

// TestGPUShardedMaxCyclesAborts mirrors the sequential MaxCycles abort for
// the sharded loop, and checks context cancellation unwinds the worker pool
// cleanly.
func TestGPUShardedMaxCyclesAborts(t *testing.T) {
	cfg := testConfig(8)
	s, err := New(cfg, streamWorkload(64, 2, 50), Options{Shards: 2, MaxCycles: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("MaxCycles exceeded without error")
	}

	s2, err := New(cfg, streamWorkload(64, 2, 50), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s2.RunContext(ctx); err == nil {
		t.Error("cancelled context did not abort the sharded run")
	}
}
