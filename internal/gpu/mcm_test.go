package gpu

import (
	"testing"

	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// The behaviours only a multi-chiplet package has: first-touch page
// placement, the CTA scheduler policy, and weak scaling across chiplets.

func TestFirstTouchCreatesRemoteTraffic(t *testing.T) {
	// A shared region touched by CTAs on every chiplet: whoever touches a
	// page first owns it, so later accesses from other chiplets are
	// remote.
	shared := &trace.FuncWorkload{
		WName: "mcm-shared",
		Spec:  trace.KernelSpec{NumCTAs: 64, WarpsPerCTA: 2},
		Factory: func(cta, warp int) trace.Program {
			g := &trace.SeqGen{Base: 0, Start: uint64(warp) * 128, Stride: 128, Extent: 1 << 21}
			return trace.NewPhaseProgram(trace.Phase{N: 120, ComputePer: 1, Gen: g})
		},
	}
	st := mustSimulate(t, mcm(smallMCM(4, 4)), Options{}, shared)
	if st.RemoteFraction <= 0.3 {
		t.Errorf("RemoteFraction = %v, want well above 0 for shared data on 4 chiplets", st.RemoteFraction)
	}
}

func TestPrivateDataStaysLocalMostly(t *testing.T) {
	// Streaming private data: each page is touched by exactly one warp,
	// so every access is local.
	st := mustSimulate(t, mcm(smallMCM(4, 4)), Options{}, mcmStreamWorkload(64, 2, 64))
	if st.RemoteFraction > 0.05 {
		t.Errorf("RemoteFraction = %v, want ≈0 for private streams", st.RemoteFraction)
	}
}

func TestWeakScalingAcrossChiplets(t *testing.T) {
	// A weak-scaled workload on 2 vs 4 chiplets: IPC should roughly
	// double (linear family).
	wb, err := workloads.WeakByName("va")
	if err != nil {
		t.Fatal(err)
	}
	st2 := mustSimulate(t, mcm(smallMCM(2, 8)), Options{}, wb.ForSMs(2*8))
	st4 := mustSimulate(t, mcm(smallMCM(4, 8)), Options{}, wb.ForSMs(4*8))
	ratio := st4.IPC / st2.IPC
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("weak va scaled %.2fx from 2 to 4 chiplets, want ≈2x", ratio)
	}
}

func TestContiguousSchedulerImprovesLocality(t *testing.T) {
	// CTAs sharing per-CTA-neighbourhood pages: contiguous placement keeps
	// neighbours on one chiplet, so its remote fraction must be lower
	// than distributed scheduling's.
	mk := func() trace.Workload {
		return &trace.FuncWorkload{
			WName: "mcm-neighbour",
			Spec:  trace.KernelSpec{NumCTAs: 64, WarpsPerCTA: 2},
			Factory: func(cta, warp int) trace.Program {
				// Consecutive CTAs touch overlapping 16 KiB windows.
				base := uint64(cta/8) * 16384
				g := &trace.SeqGen{Base: base, Start: uint64(warp) * 128, Stride: 128, Extent: 16384}
				return trace.NewPhaseProgram(trace.Phase{N: 60, ComputePer: 1, Gen: g})
			},
		}
	}
	dist := mustSimulate(t, mcm(smallMCM(4, 4)), Options{}, mk())
	cont := mustSimulate(t, mcm(contiguousMCM(4, 4)), Options{}, mk())
	if cont.RemoteFraction >= dist.RemoteFraction {
		t.Errorf("contiguous remote fraction %.3f not below distributed %.3f",
			cont.RemoteFraction, dist.RemoteFraction)
	}
}

func TestBadCTASchedulerRejected(t *testing.T) {
	cfg := smallMCM(2, 4)
	cfg.CTAScheduler = "zigzag"
	if _, err := mcm(cfg).build(Options{}, computeWorkload(4, 2, 10)); err == nil {
		t.Error("unknown CTA scheduler accepted")
	}
}
