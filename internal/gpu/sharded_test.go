package gpu

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/obs"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
	"gpuscale/internal/workloads"
)

// randomTrafficWorkload scatters every warp's loads uniformly over a shared
// region (deterministically seeded per warp): lines interleave across LLC
// slices — and pages across chiplets — and MSHR merges, full-MSHR pushback
// and DRAM jitter all fire, so every shard keeps injecting traffic into the
// shared post-L1 path — the randomized stress cell the race gate runs.
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

// dualIssue gives a machine two-wide SMs with a one-entry MSHR file, so an
// SM's second access of a cycle merges into, or stalls behind, the entry
// its first access allocates — the same-cycle hazard the sharded runner
// resolves at the barrier.
func dualIssue(m machine) machine {
	m.cfg.Uarch = uarch.Variant{IssueWidth: 2}
	m.cfg.L1MSHRs = 1
	if m.pkg != nil {
		pkg := *m.pkg
		pkg.Chiplet = m.cfg
		m.pkg = &pkg
	}
	return m
}

// forkThresholds are the values the sharded suites run stepSharded's fork
// decision at: always fork, the production rule, never fork. The machines
// here are small enough that the production rule alone would run most of
// their cycles inline and leave the forked phase A untested.
var forkThresholds = []struct {
	name string
	at   int
}{{"fork=always", 0}, {"fork=" + strconv.Itoa(forkMinWork), forkMinWork}, {"fork=never", math.MaxInt}}

// atForkThresholds runs leg once per forkThresholds entry with forkAt set to
// it, and restores the production value afterwards.
func atForkThresholds(leg func(fork string)) {
	defer func() { forkAt = forkMinWork }()
	for _, ft := range forkThresholds {
		forkAt = ft.at
		leg(ft.name)
	}
}

// TestGPUShardedMatchesSequential is the bit-identity contract of the
// sharded runner: the same simulation at Shards=1 (sequential event loop)
// and Shards=N must produce identical statistics — across workload shapes,
// real benchmarks, warm-up resets, kernel sequences, the no-skip ablation,
// SM groups of a GPU and chiplet groups of a package, and shard counts that
// divide either evenly and unevenly.
func TestGPUShardedMatchesSequential(t *testing.T) {
	bfs, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	one := func(w trace.Workload) func() []trace.Workload {
		return func() []trace.Workload { return []trace.Workload{w} }
	}
	type cell struct {
		name string
		m    machine
		mk   func() []trace.Workload
		base Options
	}
	check := func(t *testing.T, c cell) {
		run := func(opt Options) outcome {
			t.Helper()
			return mustSimulate(t, c.m, opt, c.mk()...)
		}
		seq := run(c.base)
		atForkThresholds(func(fork string) {
			for _, shards := range []int{2, 3, 4} {
				opt := c.base
				opt.Shards = shards
				if got := run(opt); got != seq {
					t.Errorf("%s shards=%d stats diverge\nsharded    %+v\nsequential %+v", fork, shards, got, seq)
				}
			}
		})
		// One leg on a single processor: the shard pool may not spin
		// there, so its yield and park stages carry the protocol — the
		// path a 1-core CI runner takes and a 2-core host never does.
		// The real benchmarks sit it out: tens of seconds there, and no
		// protocol path the synthetic cells lack.
		if strings.HasPrefix(c.name, "bfs/") {
			return
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		opt := c.base
		opt.Shards = 3
		atForkThresholds(func(fork string) {
			if got := run(opt); got != seq {
				t.Errorf("GOMAXPROCS=1 %s shards=3 stats diverge\nsharded    %+v\nsequential %+v", fork, got, seq)
			}
		})
	}
	for _, c := range []cell{
		{"compute/16sm", mono(testConfig(16)), one(computeWorkload(48, 2, 60)), Options{}},
		{"stream/16sm", mono(testConfig(16)), one(streamWorkload(48, 2, 40)), Options{}},
		{"reuse/16sm", mono(testConfig(16)), one(reuseWorkload(48, 2, 1<<18, 40, 0)), Options{}},
		{"random/16sm", mono(testConfig(16)), one(randomTrafficWorkload(32, 2, 25)), Options{}},
		{"bfs/16sm", mono(testConfig(16)), one(bfs.Workload), Options{}},
		{"stream/warmup", mono(testConfig(16)), one(streamWorkload(48, 2, 40)), Options{WarmupInstructions: 1500}},
		{"stream/noskip", mono(testConfig(8)), one(streamWorkload(24, 2, 25)), Options{DisableEventSkip: true}},
		{"stream/mshr-stall", mono(mshrStallConfig(8, 4)), one(streamWorkload(64, 4, 40)), Options{}},
		{"stream/wide-sm", mono(wideSMConfig(8)), one(streamWorkload(256, 4, 20)), Options{}},
		{"reuse/dual-issue", dualIssue(mono(testConfig(8))), one(reuseWorkload(48, 4, 1<<16, 40, 0)), Options{}},
		{"sequence/2kernels", mono(testConfig(16)), func() []trace.Workload {
			return []trace.Workload{streamWorkload(32, 2, 30), reuseWorkload(32, 2, 1<<18, 30, 0)}
		}, Options{}},
	} {
		t.Run(c.name, func(t *testing.T) { check(t, c) })
	}
	t.Run("mcm", func(t *testing.T) {
		for _, c := range []cell{
			{"compute/4c", mcm(smallMCM(4, 2)), one(computeWorkload(32, 2, 50)), Options{}},
			{"stream/4c", mcm(smallMCM(4, 2)), one(mcmStreamWorkload(32, 2, 30)), Options{}},
			{"shared/4c", mcm(smallMCM(4, 2)), one(sharedStreamWorkload(32, 2, 30)), Options{}},
			{"shared/contiguous", mcm(contiguousMCM(4, 2)), one(sharedStreamWorkload(32, 2, 30)), Options{}},
			{"random/4c", mcm(smallMCM(4, 2)), one(randomTrafficWorkload(24, 2, 20)), Options{}},
			{"bfs/4c", mcm(config.MustScaleChiplets(config.Target16Chiplet(), 4)), one(bfs.Workload), Options{}},
			{"stream/horizon-dram", mcm(horizonMCM(4, 2, 15)), one(mcmStreamWorkload(32, 2, 30)), Options{}},
			{"stream/mshr-stall", mcm(mshrStallMCM(4, 2, 4)), one(mcmStreamWorkload(64, 4, 30)), Options{}},
			{"random/dual-issue", dualIssue(mcm(smallMCM(4, 2))), one(randomTrafficWorkload(32, 4, 25)), Options{}},
			{"stream/warmup", mcm(smallMCM(4, 2)), one(sharedStreamWorkload(32, 2, 30)), Options{WarmupInstructions: 2000}},
			{"sequence/2kernels", mcm(smallMCM(4, 2)), func() []trace.Workload {
				return []trace.Workload{sharedStreamWorkload(16, 2, 20), randomTrafficWorkload(16, 2, 20)}
			}, Options{}},
		} {
			t.Run(c.name, func(t *testing.T) { check(t, c) })
		}
	})
}

// TestGPUShardedSamplesMatchSequential: the interval sampler reads MSHR
// occupancy between phases, when a deferring cycle's allocations are still
// waiting for the owning shards' next applyFixups — the sharded loop lands
// them before sampling, so the sample series (every cycle here, to hit the
// cycle after each deferral) equals the sequential one value for value.
func TestGPUShardedSamplesMatchSequential(t *testing.T) {
	for _, m := range []machine{mono(testConfig(8)), mcm(smallMCM(4, 2))} {
		samples := func(opt Options) []obs.Sample {
			t.Helper()
			rec := obs.New()
			opt.Recorder = rec
			opt.SampleEvery = 1
			mustSimulate(t, m, opt, randomTrafficWorkload(16, 2, 12))
			return rec.Samples()
		}
		seq := samples(Options{})
		if len(seq) == 0 {
			t.Fatal("no samples recorded")
		}
		atForkThresholds(func(fork string) {
			if got := samples(Options{Shards: 3}); !reflect.DeepEqual(got, seq) {
				t.Errorf("%s %s shards=3: sample series diverges from sequential (%d vs %d samples)", m.cfg.Name, fork, len(got), len(seq))
			}
		})
	}
}

// TestGPUShardedRandomCrossTrafficStress is the larger randomized cell:
// heavier shared traffic over more SMs or chiplets, shard counts that
// divide them evenly and unevenly — meant to run under the race detector
// (make race) to check the phase discipline on a real workload.
func TestGPUShardedRandomCrossTrafficStress(t *testing.T) {
	for _, c := range []struct {
		name   string
		m      machine
		w      func() trace.Workload
		shards []int
	}{
		{"mono", mono(testConfig(16)), func() trace.Workload { return randomTrafficWorkload(64, 2, 30) }, []int{2, 5, 8, 16}},
		{"mcm", mcm(smallMCM(8, 2)), func() trace.Workload { return randomTrafficWorkload(48, 2, 25) }, []int{2, 4, 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			seq := mustSimulate(t, c.m, Options{}, c.w())
			atForkThresholds(func(fork string) {
				for _, shards := range c.shards {
					if got := mustSimulate(t, c.m, Options{Shards: shards}, c.w()); got != seq {
						t.Errorf("%s shards=%d stats diverge\nsharded    %+v\nsequential %+v", fork, shards, got, seq)
					}
				}
			})
		})
	}
}

// TestGPUShardsValidation pins the option edge cases: negatives rejected,
// legacy+shards rejected, counts beyond the SM count — the chiplet count on
// a package — clamped (and still bit-identical), 0/1 selecting the plain
// sequential loop.
func TestGPUShardsValidation(t *testing.T) {
	for _, c := range []struct {
		name  string
		m     machine
		units int
		w     func() trace.Workload
	}{
		{"mono", mono(testConfig(8)), 8, func() trace.Workload { return streamWorkload(16, 2, 10) }},
		{"mcm", mcm(smallMCM(2, 2)), 2, func() trace.Workload { return mcmStreamWorkload(8, 2, 10) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.m.build(Options{Shards: -1}, c.w()); err == nil {
				t.Error("negative Shards accepted")
			}
			if _, err := c.m.build(Options{Shards: 2, UseLegacyLoop: true}, c.w()); err == nil {
				t.Error("Shards with UseLegacyLoop accepted")
			}
			for _, n := range []int{0, 1} {
				s, err := c.m.build(Options{Shards: n}, c.w())
				if err != nil {
					t.Fatal(err)
				}
				if len(s.shards) != 1 {
					t.Errorf("Shards=%d built %d shard runners", n, len(s.shards))
				}
			}
			seq := mustSimulate(t, c.m, Options{}, c.w())
			atForkThresholds(func(fork string) {
				s, err := c.m.build(Options{Shards: 99}, c.w())
				if err != nil {
					t.Fatal(err)
				}
				if len(s.shards) != c.units {
					t.Fatalf("Shards=99 built %d shards, want %d", len(s.shards), c.units)
				}
				clamped, err := s.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if clamped != seq {
					t.Errorf("%s: clamped sharded run diverged\nsharded    %+v\nsequential %+v", fork, clamped, seq)
				}
			})
		})
	}
}

// TestGPUShardedMaxCyclesAborts mirrors the sequential MaxCycles abort for
// the sharded loop, and checks context cancellation unwinds the worker pool
// cleanly.
func TestGPUShardedMaxCyclesAborts(t *testing.T) {
	for _, c := range []struct {
		name string
		m    machine
	}{
		{"mono", mono(testConfig(8))},
		{"mcm", mcm(smallMCM(2, 2))},
	} {
		t.Run(c.name, func(t *testing.T) {
			atForkThresholds(func(fork string) {
				if _, err := simulate(c.m, Options{Shards: 2, MaxCycles: 10}, streamWorkload(64, 2, 50)); err == nil {
					t.Errorf("%s: MaxCycles exceeded without error", fork)
				}
				s, err := c.m.build(Options{Shards: 2}, streamWorkload(64, 2, 50))
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := s.run(ctx); err == nil {
					t.Errorf("%s: cancelled context did not abort the sharded run", fork)
				}
			})
		})
	}
}
