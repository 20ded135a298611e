package gpu

import (
	"context"
	"fmt"
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
)

// testConfig returns a small, fast GPU configuration.
func testConfig(numSMs int) config.SystemConfig {
	base := config.Baseline128()
	return config.MustScale(base, numSMs)
}

// smallMCM is the paper's chiplet with its SM count cut to smsPerChiplet,
// scaled to the given chiplet count.
func smallMCM(chiplets, smsPerChiplet int) config.ChipletConfig {
	c := config.Target16Chiplet()
	c.Chiplet.NumSMs = smsPerChiplet
	return config.MustScaleChiplets(c, chiplets)
}

// machine is a test cell's hardware: a monolithic GPU, or a multi-chiplet
// package when pkg is set.
type machine struct {
	cfg config.SystemConfig
	pkg *config.ChipletConfig
}

func mono(cfg config.SystemConfig) machine { return machine{cfg: cfg} }

func mcm(cfg config.ChipletConfig) machine { return machine{cfg: cfg.Chiplet, pkg: &cfg} }

func (m machine) build(opt Options, kernels ...trace.Workload) (*Simulator, error) {
	if m.pkg != nil {
		return NewMCM(*m.pkg, kernels, opt)
	}
	return New(m.cfg, kernels, opt)
}

// simulate builds and runs one simulation. Every run it completes also
// passes the cycle-conservation check: each SM's classified cycles must add
// up to the measured window, under every run loop, with or without a
// warm-up reset — so every cell of every suite built on it checks that.
func simulate(m machine, opt Options, kernels ...trace.Workload) (Stats, error) {
	s, err := m.build(opt, kernels...)
	if err != nil {
		return Stats{}, err
	}
	st, err := s.RunContext(context.Background())
	if err == nil {
		err = s.checkCycleConservation(st.Cycles)
	}
	return st, err
}

// checkCycleConservation reports an SM whose classified cycles differ from
// the run's measured window.
func (s *Simulator) checkCycleConservation(window int64) error {
	for i, m := range s.sms {
		if got := m.Stats().TotalCycles(); got != uint64(window) {
			return fmt.Errorf("cycle conservation: SM %d classified %d cycles, window is %d", i, got, window)
		}
	}
	return nil
}

func mustSimulate(t testing.TB, m machine, opt Options, kernels ...trace.Workload) Stats {
	t.Helper()
	o, err := simulate(m, opt, kernels...)
	if err != nil {
		t.Fatalf("simulating %s: %v", kernels[0].Name(), err)
	}
	return o
}

func mustRun(t testing.TB, cfg config.SystemConfig, w trace.Workload) Stats {
	t.Helper()
	return mustSimulate(t, mono(cfg), Options{}, w)
}

// computeWorkload is embarrassingly parallel compute: linear scaling.
func computeWorkload(ctas, warpsPerCTA, instrs int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "compute",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warpsPerCTA},
		Factory: func(cta, warp int) trace.Program {
			return trace.NewPhaseProgram(trace.Phase{N: instrs})
		},
	}
}

// streamWorkload streams distinct lines per warp: memory-bandwidth bound.
func streamWorkload(ctas, warpsPerCTA, loads int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "stream",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warpsPerCTA},
		Factory: func(cta, warp int) trace.Program {
			base := uint64(cta*warpsPerCTA+warp) * uint64(loads) * 128
			g := &trace.SeqGen{Base: base, Stride: 128, Extent: 1 << 40}
			return trace.NewPhaseProgram(trace.Phase{N: loads, ComputePer: 0, Gen: g})
		},
	}
}

// mcmStreamWorkload streams private lines with two compute instructions
// between loads: every page is touched by one warp, so every access stays
// on the issuing chiplet.
func mcmStreamWorkload(ctas, warps, loads int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "mcm-stream",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warps},
		Factory: func(cta, warp int) trace.Program {
			base := uint64(cta*warps+warp) * uint64(loads) * 128
			g := &trace.SeqGen{Base: base, Stride: 128, Extent: 1 << 40}
			return trace.NewPhaseProgram(trace.Phase{N: loads * 3, ComputePer: 2, Gen: g})
		},
	}
}

// reuseWorkload loops over a shared working set of wsBytes several times.
// ctaLimit caps per-SM occupancy (0 = unlimited), modelling shared-memory-
// limited kernels.
func reuseWorkload(ctas, warpsPerCTA int, wsBytes uint64, loadsPerWarp, ctaLimit int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "reuse",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warpsPerCTA, CTAsPerSMLimit: ctaLimit},
		Factory: func(cta, warp int) trace.Program {
			// Each warp starts at a different offset in the shared
			// working set so accesses cover it cooperatively.
			start := trace.WarpSeed(1, cta, warp) % wsBytes
			start -= start % 128
			g := &trace.SeqGen{Base: 0, Start: start, Stride: 128, Extent: wsBytes}
			return trace.NewPhaseProgram(trace.Phase{N: loadsPerWarp, ComputePer: 1, Gen: g})
		},
	}
}

// TestNewValidation: invalid machines and kernels are rejected on both
// entry points.
func TestNewValidation(t *testing.T) {
	badGPU := testConfig(8)
	badGPU.NumSMs = 0
	badMCM := smallMCM(2, 4)
	badMCM.NumChiplets = 0
	for _, c := range []struct {
		name    string
		ok, bad machine
	}{
		{"mono", mono(testConfig(8)), mono(badGPU)},
		{"mcm", mcm(smallMCM(2, 4)), mcm(badMCM)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.bad.build(Options{}, computeWorkload(4, 2, 10)); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := c.ok.build(Options{}, nil); err == nil {
				t.Error("nil workload accepted")
			}
			if _, err := c.ok.build(Options{}, computeWorkload(0, 1, 1)); err == nil {
				t.Error("zero CTAs accepted")
			}
			if _, err := c.ok.build(Options{}, computeWorkload(1, 500, 1)); err == nil {
				t.Error("CTA wider than SM accepted")
			}
		})
	}
}

// TestComputeWorkloadBasics: a pure-compute kernel runs to completion with
// exact instruction and CTA counts, no memory traffic and — on a package —
// no remote access.
func TestComputeWorkloadBasics(t *testing.T) {
	for _, c := range []struct {
		name string
		m    machine
		w    trace.Workload
		n    uint64
		ctas uint64
	}{
		{"mono", mono(testConfig(8)), computeWorkload(64, 8, 100), 64 * 8 * 100, 64},
		{"mcm", mcm(smallMCM(2, 4)), computeWorkload(32, 2, 50), 32 * 2 * 50, 32},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := mustSimulate(t, c.m, Options{}, c.w)
			if st.Instructions != c.n {
				t.Errorf("instructions = %d, want %d", st.Instructions, c.n)
			}
			if st.CTAs != c.ctas {
				t.Errorf("CTAs = %d, want %d", st.CTAs, c.ctas)
			}
			if st.MemInstructions != 0 {
				t.Errorf("mem instructions = %d, want 0", st.MemInstructions)
			}
			if st.IPC <= 0 || st.Cycles <= 0 {
				t.Errorf("degenerate stats: %+v", st)
			}
			if st.FMem != 0 {
				t.Errorf("compute workload FMem = %v, want 0", st.FMem)
			}
			if st.RemoteFraction != 0 {
				t.Errorf("compute workload has remote accesses: %v", st.RemoteFraction)
			}
		})
	}
}

func TestComputeScalesLinearly(t *testing.T) {
	w := computeWorkload(512, 8, 60)
	ipc8 := mustRun(t, testConfig(8), w).IPC
	ipc32 := mustRun(t, testConfig(32), w).IPC
	ratio := ipc32 / ipc8
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("compute scaling 8→32 SMs = %.2fx, want ≈4x", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	for _, c := range []struct {
		name string
		m    machine
		w    trace.Workload
	}{
		{"mono", mono(testConfig(8)), reuseWorkload(64, 4, 1<<21, 200, 0)},
		{"mcm", mcm(smallMCM(2, 4)), mcmStreamWorkload(32, 2, 60)},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := mustSimulate(t, c.m, Options{}, c.w)
			b := mustSimulate(t, c.m, Options{}, c.w)
			if a != b {
				t.Errorf("two runs differ:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestEventSkipInvariance: disabling event skip changes host time only, on
// both entry points.
func TestEventSkipInvariance(t *testing.T) {
	for _, c := range []struct {
		name string
		m    machine
		w    func() trace.Workload
	}{
		{"mono", mono(testConfig(8)), func() trace.Workload { return streamWorkload(32, 4, 100) }},
		{"mcm", mcm(smallMCM(2, 4)), func() trace.Workload { return mcmStreamWorkload(32, 2, 60) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			fast := mustSimulate(t, c.m, Options{}, c.w())
			slow := mustSimulate(t, c.m, Options{DisableEventSkip: true}, c.w())
			if fast.SkippedCycles == 0 {
				t.Error("fast run skipped no cycles; test is vacuous")
			}
			if slow.SkippedCycles != 0 {
				t.Error("slow run skipped cycles despite DisableEventSkip")
			}
			// Skipping changes only how many cycles are visited.
			fast.SkippedCycles, fast.SimEvents = 0, slow.SimEvents
			if fast != slow {
				t.Errorf("event skip changed results:\nfast: %+v\nslow: %+v", fast, slow)
			}
		})
	}
}

func TestMemoryBoundWorkloadStalls(t *testing.T) {
	cfg := testConfig(8)
	st := mustRun(t, cfg, streamWorkload(32, 4, 200))
	if st.FMem < 0.2 {
		t.Errorf("streaming workload FMem = %v, want substantial", st.FMem)
	}
	if st.LLCMisses == 0 {
		t.Error("streaming workload should miss in LLC")
	}
	if st.LLCMPKI <= 0 {
		t.Error("MPKI should be positive")
	}
}

func TestWorkingSetCacheabilityAffectsIPC(t *testing.T) {
	// A ~3 MiB shared working set with reuse, occupancy-limited to 3 CTAs
	// (12 warps) per SM: thrashes the 8-SM LLC (2.125 MiB) but fits the
	// 32-SM LLC (8.5 MiB). With too few warps to hide the full DRAM
	// latency, per-SM efficiency improves markedly once the working set
	// becomes LLC-resident — the cliff mechanism behind super-linear
	// scaling.
	ws := uint64(3 << 20)
	w := reuseWorkload(1024, 4, ws, 400, 3)
	st8 := mustRun(t, testConfig(8), w)
	st32 := mustRun(t, testConfig(32), w)
	perSM8 := st8.IPC / 8
	perSM32 := st32.IPC / 32
	if perSM32 <= perSM8*1.05 {
		t.Errorf("per-SM IPC did not improve past the cliff: 8-SM %.3f vs 32-SM %.3f", perSM8, perSM32)
	}
	if st32.LLCMPKI >= st8.LLCMPKI {
		t.Errorf("MPKI should drop when the working set fits: 8-SM %.2f vs 32-SM %.2f",
			st8.LLCMPKI, st32.LLCMPKI)
	}
}

func TestCTAStarvationSubLinear(t *testing.T) {
	// Few CTAs: a 64-SM machine cannot be filled, so scaling 8→64 is
	// clearly sub-linear even for pure compute.
	w := computeWorkload(96, 8, 2000)
	ipc8 := mustRun(t, testConfig(8), w).IPC
	ipc64 := mustRun(t, testConfig(64), w).IPC
	ratio := ipc64 / ipc8
	if ratio > 6.5 {
		t.Errorf("starved workload scaled %.1fx over 8x SMs; want sub-linear", ratio)
	}
	if ratio < 1 {
		t.Errorf("scaling ratio %.2f < 1; larger machine slower", ratio)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	for _, c := range []struct {
		name string
		m    machine
		w    trace.Workload
	}{
		{"mono", mono(testConfig(8)), streamWorkload(64, 4, 500)},
		{"mcm", mcm(smallMCM(2, 4)), mcmStreamWorkload(32, 2, 100)},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := simulate(c.m, Options{MaxCycles: 10}, c.w); err == nil {
				t.Error("MaxCycles did not abort")
			}
		})
	}
}

func TestBypassL1GoesToLLC(t *testing.T) {
	// All accesses to one hot line with BypassL1: every access reaches
	// the LLC (no L1 filtering).
	hot := &trace.FuncWorkload{
		WName: "hot",
		Spec:  trace.KernelSpec{NumCTAs: 16, WarpsPerCTA: 2},
		Factory: func(cta, warp int) trace.Program {
			g := &trace.SeqGen{Base: 0, Stride: 128, Extent: 128 * 4}
			return trace.NewPhaseProgram(trace.Phase{N: 50, ComputePer: 0, Gen: g, Flags: trace.BypassL1})
		},
	}
	st := mustRun(t, testConfig(8), hot)
	if st.LLCAccesses != st.MemInstructions {
		t.Errorf("LLC accesses = %d, want %d (all bypass L1)", st.LLCAccesses, st.MemInstructions)
	}
	if st.L1MissRate != 0 {
		t.Errorf("L1 should be untouched, miss rate = %v", st.L1MissRate)
	}
}

func TestCampingSlowsSharedHotData(t *testing.T) {
	// Shared hot lines accessed with BypassL1 from every SM: as SM count
	// grows, traffic to the same few slices grows while per-slice
	// bandwidth is constant → sub-linear scaling.
	mk := func(ctas int) trace.Workload {
		return &trace.FuncWorkload{
			WName: "camping",
			Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: 4},
			Factory: func(cta, warp int) trace.Program {
				g := &trace.SeqGen{Base: 0, Start: uint64(warp) * 128, Stride: 128, Extent: 128 * 8}
				return trace.NewPhaseProgram(trace.Phase{N: 300, ComputePer: 1, Gen: g, Flags: trace.BypassL1})
			},
		}
	}
	ipc8 := mustRun(t, testConfig(8), mk(1024)).IPC
	ipc64 := mustRun(t, testConfig(64), mk(1024)).IPC
	ratio := ipc64 / ipc8
	if ratio > 6 {
		t.Errorf("camping workload scaled %.1fx over 8x SMs; want clearly sub-linear", ratio)
	}
}

func TestStatsAccounting(t *testing.T) {
	for _, c := range []struct {
		name string
		m    machine
		w    trace.Workload
	}{
		{"mono", mono(testConfig(8)), streamWorkload(16, 4, 50)},
		{"mcm", mcm(smallMCM(2, 4)), mcmStreamWorkload(32, 2, 60)},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := mustSimulate(t, c.m, Options{}, c.w)
			if st.LLCMisses > st.LLCAccesses {
				t.Error("more LLC misses than accesses")
			}
			if st.MemInstructions > st.Instructions {
				t.Error("more memory instructions than instructions")
			}
			if st.LLCMPKI < 0 {
				t.Errorf("MPKI %v", st.LLCMPKI)
			}
			if st.FMem < 0 || st.FMem > 1 {
				t.Errorf("FMem out of range: %v", st.FMem)
			}
			if st.NoCUtilization < 0 || st.NoCUtilization > 1 {
				t.Errorf("NoC utilization out of range: %v", st.NoCUtilization)
			}
			if st.DRAMUtilization < 0 || st.DRAMUtilization > 1 {
				t.Errorf("DRAM utilization out of range: %v", st.DRAMUtilization)
			}
			if st.SimEvents == 0 {
				t.Errorf("SimEvents %d", st.SimEvents)
			}
		})
	}
}
