package gpu

import (
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// horizonConfig is an n-SM config with DRAM latency moved so blocked-warp
// wake-up distances land on both sides of a wheel horizon — the timing
// kernel's 64-cycle due-wheel at dram ~52, the SM's 512-cycle pending-warp
// wheel at dram ~440 — exercising the wheel/heap hand-off against the dense
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

// horizonMCM and mshrStallMCM are the same two stress configurations on a
// small multi-chiplet package.
func horizonMCM(chiplets, smsPerChiplet, dram int) config.ChipletConfig {
	cfg := smallMCM(chiplets, smsPerChiplet)
	cfg.Chiplet.DRAMLatency = dram
	cfg.Name += "-horizon"
	return cfg
}

func mshrStallMCM(chiplets, smsPerChiplet, mshrs int) config.ChipletConfig {
	cfg := smallMCM(chiplets, smsPerChiplet)
	cfg.Chiplet.L1MSHRs = mshrs
	cfg.Name += "-mshrstall"
	return cfg
}

// contiguousMCM is smallMCM with the contiguous CTA scheduler.
func contiguousMCM(chiplets, smsPerChiplet int) config.ChipletConfig {
	cfg := smallMCM(chiplets, smsPerChiplet)
	cfg.CTAScheduler = "contiguous"
	cfg.Name += "-contig"
	return cfg
}

// TestEventLoopMatchesLegacy runs the event-driven loop and the dense
// reference loop over the same (machine, workload, options) cells and
// requires every statistic to match bit for bit. This is the in-package
// half of the equivalence guard; the package-level golden-stats snapshot
// additionally pins both against the committed pre-optimisation results.
func TestEventLoopMatchesLegacy(t *testing.T) {
	bfs, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		name string
		m    machine
		w    func() trace.Workload
		opt  Options
	}
	check := func(t *testing.T, c cell) {
		ev := mustSimulate(t, c.m, c.opt, c.w())
		if c.name == "stream/mshr-stall" && ev.MSHRStalls == 0 {
			t.Error("no MSHR stalls: the cell no longer reaches the full-file path")
		}
		legacyOpt := c.opt
		legacyOpt.UseLegacyLoop = true
		if lg := mustSimulate(t, c.m, legacyOpt, c.w()); ev != lg {
			t.Errorf("stats diverge between loops\nevent  %+v\nlegacy %+v", ev, lg)
		}
	}
	for _, c := range []cell{
		{"compute/8sm", mono(testConfig(8)), func() trace.Workload { return computeWorkload(64, 4, 200) }, Options{}},
		{"stream/8sm", mono(testConfig(8)), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{}},
		{"stream/16sm", mono(testConfig(16)), func() trace.Workload { return streamWorkload(96, 4, 60) }, Options{}},
		{"reuse-ctalimit/8sm", mono(testConfig(8)), func() trace.Workload { return reuseWorkload(64, 4, 1<<16, 80, 2) }, Options{}},
		{"stream/noskip", mono(testConfig(8)), func() trace.Workload { return streamWorkload(48, 4, 40) }, Options{DisableEventSkip: true}},
		{"stream/warmup", mono(testConfig(8)), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{WarmupInstructions: 5000}},
		{"stream/horizon-dram", mono(horizonConfig(8, 52)), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{}},
		{"stream/sm-horizon-dram", mono(horizonConfig(8, 440)), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{}},
		{"stream/mshr-stall", mono(mshrStallConfig(8, 4)), func() trace.Workload { return streamWorkload(64, 4, 60) }, Options{}},
		{"stream/wide-sm", mono(wideSMConfig(8)), func() trace.Workload { return streamWorkload(256, 4, 30) }, Options{}},
	} {
		t.Run(c.name, func(t *testing.T) { check(t, c) })
	}
	t.Run("mcm", func(t *testing.T) {
		for _, c := range []cell{
			{"compute/2c", mcm(smallMCM(2, 4)), func() trace.Workload { return computeWorkload(32, 2, 50) }, Options{}},
			{"stream/2c", mcm(smallMCM(2, 4)), func() trace.Workload { return mcmStreamWorkload(32, 2, 30) }, Options{}},
			{"stream/contiguous", mcm(contiguousMCM(2, 4)), func() trace.Workload { return mcmStreamWorkload(32, 2, 30) }, Options{}},
			{"bfs/4c", mcm(config.MustScaleChiplets(config.Target16Chiplet(), 4)), func() trace.Workload { return bfs.Workload }, Options{}},
			{"stream/horizon-dram", mcm(horizonMCM(2, 4, 15)), func() trace.Workload { return mcmStreamWorkload(32, 2, 30) }, Options{}},
			{"stream/mshr-stall", mcm(mshrStallMCM(2, 4, 4)), func() trace.Workload { return mcmStreamWorkload(64, 4, 30) }, Options{}},
			{"stream/warmup", mcm(smallMCM(2, 4)), func() trace.Workload { return mcmStreamWorkload(32, 2, 30) }, Options{WarmupInstructions: 3000}},
		} {
			t.Run(c.name, func(t *testing.T) { check(t, c) })
		}
	})
}

// TestEventLoopMatchesLegacySequence covers the multi-kernel path: the grid
// barrier, cache persistence across kernels, and per-kernel CTA refill all
// go through the event-driven barrier branch, on a GPU and on a package.
func TestEventLoopMatchesLegacySequence(t *testing.T) {
	mk := func() []trace.Workload {
		return []trace.Workload{
			streamWorkload(32, 4, 40),
			computeWorkload(32, 4, 100),
			streamWorkload(32, 4, 40),
		}
	}
	for _, m := range []machine{mono(testConfig(8)), mcm(smallMCM(2, 4))} {
		ev := mustSimulate(t, m, Options{}, mk()...)
		lg := mustSimulate(t, m, Options{UseLegacyLoop: true}, mk()...)
		if ev != lg {
			t.Errorf("%s: sequence stats diverge between loops\nevent  %+v\nlegacy %+v", m.cfg.Name, ev, lg)
		}
	}
}
