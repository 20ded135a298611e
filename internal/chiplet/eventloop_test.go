package chiplet

import (
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// horizonMCM is a small MCM config with DRAM latency lowered so blocked-warp
// wake-up distances land on both sides of the timing kernel's 64-cycle
// due-wheel horizon, exercising the wheel/heap hand-off against the dense
// reference.
func horizonMCM(chiplets, smsPerChiplet, dram int) config.ChipletConfig {
	cfg := smallMCM(chiplets, smsPerChiplet)
	cfg.Chiplet.DRAMLatency = dram
	cfg.Name += "-horizon"
	return cfg
}

// mshrStallMCM is a small MCM config whose per-SM MSHR files are far smaller
// than the warps missing into them, so the full-file stall path runs.
func mshrStallMCM(chiplets, smsPerChiplet, mshrs int) config.ChipletConfig {
	cfg := smallMCM(chiplets, smsPerChiplet)
	cfg.Chiplet.L1MSHRs = mshrs
	cfg.Name += "-mshrstall"
	return cfg
}

// TestEventLoopMatchesLegacy requires the event-driven MCM run loop and the
// dense reference loop to produce bit-identical statistics across both CTA
// scheduling policies and a real benchmark workload.
func TestEventLoopMatchesLegacy(t *testing.T) {
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
		{"compute/2c", smallMCM(2, 4), func() trace.Workload { return computeWorkload(32, 2, 50) }, ""},
		{"stream/2c", smallMCM(2, 4), func() trace.Workload { return streamWorkload(32, 2, 30) }, ""},
		{"stream/contiguous", smallMCM(2, 4), func() trace.Workload { return streamWorkload(32, 2, 30) }, "contiguous"},
		{"bfs/4c", config.MustScaleChiplets(config.Target16Chiplet(), 4), func() trace.Workload { return bfs.Workload }, ""},
		{"stream/horizon-dram", horizonMCM(2, 4, 15), func() trace.Workload { return streamWorkload(32, 2, 30) }, ""},
		{"stream/mshr-stall", mshrStallMCM(2, 4, 4), func() trace.Workload { return streamWorkload(64, 4, 30) }, ""},
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
			ev := run(Options{})
			lg := run(Options{UseLegacyLoop: true})
			if ev != lg {
				t.Errorf("stats diverge between loops\nevent  %+v\nlegacy %+v", ev, lg)
			}
		})
	}
}
