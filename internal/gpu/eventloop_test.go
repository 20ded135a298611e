package gpu

import (
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
)

// TestEventLoopMatchesLegacy runs the event-driven loop and the dense
// reference loop over the same (config, workload, options) cells and
// requires every statistic to match bit for bit. This is the in-package
// half of the equivalence guard; the package-level golden-stats snapshot
// additionally pins both against the committed pre-optimisation results.
// horizonConfig is an n-SM config with DRAM latency lowered so blocked-warp
// wake-up distances land on both sides of the timing kernel's 64-cycle
// due-wheel horizon, exercising the wheel/heap hand-off against the dense
// reference.
func horizonConfig(n, dram int) config.SystemConfig {
	cfg := testConfig(n)
	cfg.DRAMLatency = dram
	cfg.Name += "-horizon"
	return cfg
}

// mshrStallConfig is an n-SM config whose L1 MSHR file is far smaller than
// the warps that miss into it, so the file fills and the Full ->
// NextCompletion -> delayed-arrival path runs on most misses.
func mshrStallConfig(n, mshrs int) config.SystemConfig {
	cfg := testConfig(n)
	cfg.L1MSHRs = mshrs
	cfg.Name += "-mshrstall"
	return cfg
}

// wideSMConfig is an n-SM config with more than 64 resident warps per SM, so
// every slot of the SM's pending-warp wheel spans two words.
func wideSMConfig(n int) config.SystemConfig {
	cfg := testConfig(n)
	cfg.WarpsPerSM, cfg.MaxCTAsPerSM = 96, 32
	cfg.Name += "-wide"
	return cfg
}

func TestEventLoopMatchesLegacy(t *testing.T) {
	cells := []struct {
		name string
		cfg  config.SystemConfig
		w    func() trace.Workload
		opt  Options
	}{
		{"compute/8sm", testConfig(8), func() trace.Workload { return computeWorkload(64, 4, 200) }, Options{}},
		{"stream/8sm", testConfig(8), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{}},
		{"stream/16sm", testConfig(16), func() trace.Workload { return streamWorkload(96, 4, 60) }, Options{}},
		{"reuse-ctalimit/8sm", testConfig(8), func() trace.Workload { return reuseWorkload(64, 4, 1<<16, 80, 2) }, Options{}},
		{"stream/noskip", testConfig(8), func() trace.Workload { return streamWorkload(48, 4, 40) }, Options{DisableEventSkip: true}},
		{"stream/warmup", testConfig(8), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{WarmupInstructions: 5000}},
		{"stream/horizon-dram", horizonConfig(8, 52), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{}},
		{"stream/mshr-stall", mshrStallConfig(8, 4), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{}},
		{"stream/wide-sm", wideSMConfig(8), func() trace.Workload { return streamWorkload(256, 4, 30) }, Options{}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			ev, err := RunWithOptions(c.cfg, c.w(), c.opt)
			if err != nil {
				t.Fatalf("event loop: %v", err)
			}
			if c.name == "stream/mshr-stall" && ev.MSHRStalls == 0 {
				t.Error("no MSHR stalls: the cell no longer reaches the full-file path")
			}
			legacyOpt := c.opt
			legacyOpt.UseLegacyLoop = true
			lg, err := RunWithOptions(c.cfg, c.w(), legacyOpt)
			if err != nil {
				t.Fatalf("legacy loop: %v", err)
			}
			if ev != lg {
				t.Errorf("stats diverge between loops\nevent  %+v\nlegacy %+v", ev, lg)
			}
		})
	}
}

// TestEventLoopMatchesLegacySequence covers the multi-kernel path: the grid
// barrier, cache persistence across kernels, and per-kernel CTA refill all
// go through the event-driven barrier branch.
func TestEventLoopMatchesLegacySequence(t *testing.T) {
	mk := func() []trace.Workload {
		return []trace.Workload{
			streamWorkload(32, 4, 40),
			computeWorkload(32, 4, 100),
			streamWorkload(32, 4, 40),
		}
	}
	ev, err := RunSequenceWithOptions(testConfig(8), mk(), Options{})
	if err != nil {
		t.Fatalf("event loop: %v", err)
	}
	lg, err := RunSequenceWithOptions(testConfig(8), mk(), Options{UseLegacyLoop: true})
	if err != nil {
		t.Fatalf("legacy loop: %v", err)
	}
	if ev != lg {
		t.Errorf("sequence stats diverge between loops\nevent  %+v\nlegacy %+v", ev, lg)
	}
}
