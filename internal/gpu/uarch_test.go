package gpu

import (
	"testing"

	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// uarchTestVariants are the non-default microarchitecture cells the
// equivalence guards below run: each axis alone plus everything at once.
var uarchTestVariants = []struct {
	name string
	v    uarch.Variant
}{
	{"two-level", uarch.Variant{Scheduler: uarch.SchedTwoLevel}},
	{"lrr", uarch.Variant{Scheduler: uarch.SchedLRR}},
	{"sectored", uarch.Variant{L1: uarch.L1Sectored}},
	{"deflect", uarch.Variant{NoC: uarch.RouteDeflect}},
	{"iw2", uarch.Variant{IssueWidth: 2}},
	{"all", uarch.Variant{Scheduler: uarch.SchedTwoLevel, L1: uarch.L1Sectored, NoC: uarch.RouteDeflect, IssueWidth: 2}},
}

// TestEventLoopMatchesLegacyUarch extends the bit-identity contract to every
// microarchitecture variant: the event-driven and dense reference loops must
// agree bit for bit no matter which scheduler, L1 fill granularity, routing
// discipline or issue width is simulated, on a GPU and, under mcm/, on a
// package.
func TestEventLoopMatchesLegacyUarch(t *testing.T) {
	type cell struct {
		name string
		m    machine
		mk   func() trace.Workload
	}
	variants := func(t *testing.T, cells []cell) {
		for _, uc := range uarchTestVariants {
			t.Run(uc.name, func(t *testing.T) {
				for _, c := range cells {
					opt := Options{Uarch: uc.v}
					ev := mustSimulate(t, c.m, opt, c.mk())
					opt.UseLegacyLoop = true
					if lg := mustSimulate(t, c.m, opt, c.mk()); ev != lg {
						t.Errorf("%s: stats diverge between loops\nevent  %+v\nlegacy %+v", c.name, ev, lg)
					}
				}
			})
		}
	}
	variants(t, []cell{
		{"stream", mono(testConfig(8)), func() trace.Workload { return streamWorkload(48, 4, 40) }},
		{"reuse", mono(testConfig(8)), func() trace.Workload { return reuseWorkload(48, 4, 1<<16, 40, 2) }},
	})
	t.Run("mcm", func(t *testing.T) {
		variants(t, []cell{
			{"mcm-stream", mcm(smallMCM(2, 4)), func() trace.Workload { return mcmStreamWorkload(32, 2, 30) }},
		})
	})
}

// TestShardedMatchesSequentialUarch extends the sharded determinism
// contract to every variant: Shards=N must reproduce the sequential run's
// statistics bit for bit, over SM groups and, under mcm/, over whole
// chiplets.
func TestShardedMatchesSequentialUarch(t *testing.T) {
	variants := func(t *testing.T, m machine, mk func() trace.Workload) {
		for _, uc := range uarchTestVariants {
			t.Run(uc.name, func(t *testing.T) {
				seq := mustSimulate(t, m, Options{Uarch: uc.v}, mk())
				for _, shards := range []int{2, 4} {
					if got := mustSimulate(t, m, Options{Uarch: uc.v, Shards: shards}, mk()); got != seq {
						t.Errorf("%s shards=%d diverges\nsharded    %+v\nsequential %+v", m.cfg.Name, shards, got, seq)
					}
				}
			})
		}
	}
	variants(t, mono(testConfig(16)), func() trace.Workload { return randomTrafficWorkload(32, 2, 25) })
	t.Run("mcm", func(t *testing.T) {
		variants(t, mcm(smallMCM(4, 4)), func() trace.Workload { return mcmStreamWorkload(48, 2, 30) })
	})
}

// TestOptionsUarchThreading pins the Options.Uarch override semantics on
// both entry points: it applies when the config is silent, must not
// conflict with a non-zero cfg.Uarch, and changes simulated timing (a
// variant is not a no-op).
func TestOptionsUarchThreading(t *testing.T) {
	deflect := uarch.Variant{NoC: uarch.RouteDeflect}
	gpuWith := func(v uarch.Variant) machine {
		cfg := testConfig(8)
		cfg.Uarch = v
		return mono(cfg)
	}
	mcmWith := func(v uarch.Variant) machine {
		cfg := smallMCM(2, 4)
		cfg.Chiplet.Uarch = v
		return mcm(cfg)
	}
	for _, c := range []struct {
		name string
		with func(uarch.Variant) machine
		mk   func() trace.Workload
	}{
		{"mono", gpuWith, func() trace.Workload { return streamWorkload(48, 4, 40) }},
		{"mcm", mcmWith, func() trace.Workload { return mcmStreamWorkload(32, 2, 30) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			viaOpt := mustSimulate(t, c.with(uarch.Variant{}), Options{Uarch: deflect}, c.mk())
			if viaCfg := mustSimulate(t, c.with(deflect), Options{}, c.mk()); viaOpt != viaCfg {
				t.Errorf("Options.Uarch and cfg.Uarch disagree\nopt %+v\ncfg %+v", viaOpt, viaCfg)
			}
			if base := mustSimulate(t, c.with(uarch.Variant{}), Options{}, c.mk()); viaOpt == base {
				t.Error("deflect variant produced bit-identical stats to the crossbar baseline; variant not threaded")
			}
			if _, err := c.with(uarch.Variant{NoC: uarch.RouteXbar}).build(Options{Uarch: deflect}, c.mk()); err == nil {
				t.Error("conflicting Options.Uarch and cfg.Uarch accepted")
			}
		})
	}
}
