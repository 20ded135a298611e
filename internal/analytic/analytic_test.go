package analytic

import (
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
	"gpuscale/internal/workloads"
)

// autoThreshold is gpuscale.DefaultConfidenceThreshold, the auto tier's
// escalation gate (the root package cannot be imported from here).
const autoThreshold = 0.5

// TestExtractFeaturesHandBuilt checks feature extraction on a workload
// whose counts are known by construction: 4 CTAs x 2 warps, every warp
// running 40 instructions with a load every fourth into one shared 1 MiB
// stream (stride 128), 20 with a store every second into its own 64 KiB
// region (stride 64), and 12 of pure compute.
func TestExtractFeaturesHandBuilt(t *testing.T) {
	w := &trace.FuncWorkload{
		WName: "analytic-hand-built",
		Spec:  trace.KernelSpec{NumCTAs: 4, WarpsPerCTA: 2},
		Factory: func(cta, warp int) trace.Program {
			owner := uint64(cta*2 + warp)
			return trace.NewPhaseProgram(
				trace.Phase{N: 40, ComputePer: 3, Gen: &trace.SeqGen{Base: 1 << 24, Start: owner * 512, Stride: 128, Extent: 1 << 20}},
				trace.Phase{N: 20, ComputePer: 1, Store: true, Gen: &trace.SeqGen{Base: 1<<30 + owner<<20, Stride: 64, Extent: 1 << 16}},
				trace.Phase{N: 12},
			)
		},
	}
	f, err := extractFeatures(w)
	if err != nil {
		t.Fatal(err)
	}
	if f.instrPerWarp != 72 || f.loadsPerWarp != 10 || f.storesPerWarp != 10 {
		t.Errorf("per-warp mix = %v instr, %v loads, %v stores; want 72, 10, 10",
			f.instrPerWarp, f.loadsPerWarp, f.storesPerWarp)
	}
	if f.irregular || f.maxInstrPerWarp != 72 || f.unknownWeight != 0 {
		t.Errorf("irregular %v, max instr %v, unknown weight %v; want false, 72, 0",
			f.irregular, f.maxInstrPerWarp, f.unknownWeight)
	}
	// Classes sort by extent within a generator class: the private stores
	// first. Private footprint is one owner's 10 x 64 B; shared footprint
	// is all 8 warps' 10 x 128 B.
	want := []accessClass{
		{seq: true, store: true, refsPerWarp: 10, refsPerOwner: 10, weight: 0.5, footprint: 640, stride: 64},
		{seq: true, shared: true, refsPerWarp: 10, refsPerOwner: 80, weight: 0.5, footprint: 10240, stride: 128},
	}
	if len(f.classes) != len(want) {
		t.Fatalf("%d access classes, want %d: %+v", len(f.classes), len(want), f.classes)
	}
	for i := range want {
		if f.classes[i] != want[i] {
			t.Errorf("class %d = %+v, want %+v", i, f.classes[i], want[i])
		}
	}
}

// TestEstimateUarchOnlyDiscountsConfidence checks that the analytic model
// has no structural term for a microarchitecture variant: for every
// non-default value of every uarch axis, the estimate equals the baseline
// estimate except Confidence, which is the baseline's times
// uarch.ConfidencePenalty — on a monolithic and on an MCM cell.
func TestEstimateUarchOnlyDiscountsConfidence(t *testing.T) {
	var variants []uarch.Variant
	for _, s := range []uarch.Scheduler{uarch.SchedLRR, uarch.SchedTwoLevel} {
		variants = append(variants, uarch.Variant{Scheduler: s})
	}
	variants = append(variants, uarch.Variant{L1: uarch.L1Sectored}, uarch.Variant{NoC: uarch.RouteDeflect})
	for iw := 2; iw <= uarch.MaxIssueWidth; iw++ {
		variants = append(variants, uarch.Variant{IssueWidth: iw})
	}
	for _, name := range []string{"ht", "bfs"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mono := config.MustScale(config.Baseline128(), 16)
		mcm := config.MustScaleChiplets(config.Target16Chiplet(), 4)
		baseMono, err := EstimateCell(mono, b.Workload)
		if err != nil {
			t.Fatal(err)
		}
		baseMCM, err := EstimateMCM(mcm, b.Workload)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			mono.Uarch, mcm.Chiplet.Uarch = v, v
			gotMono, err := EstimateCell(mono, b.Workload)
			if err != nil {
				t.Fatal(err)
			}
			gotMCM, err := EstimateMCM(mcm, b.Workload)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				cell      string
				got, base Estimate
			}{{"16 SMs", gotMono, baseMono}, {"4 chiplets", gotMCM, baseMCM}} {
				want := c.base
				want.Confidence *= uarch.ConfidencePenalty
				if c.got != want {
					t.Errorf("%s on %s, variant %v:\n got  %+v\n want %+v", name, c.cell, v, c.got, want)
				}
			}
		}
	}
}

// TestHTBaselineClearsAutoThreshold pins what `gpuscaled -smoke` relies
// on: ht's two baseline scale models (8 and 16 SMs, the cells an auto-tier
// predict consults) are confident enough to be served analytically.
func TestHTBaselineClearsAutoThreshold(t *testing.T) {
	b, err := workloads.ByName("ht")
	if err != nil {
		t.Fatal(err)
	}
	for _, sms := range []int{8, 16} {
		e, err := EstimateCell(config.MustScale(config.Baseline128(), sms), b.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if e.Confidence < autoThreshold {
			t.Errorf("ht at %d SMs: confidence %.2f below the auto threshold %.2f", sms, e.Confidence, autoThreshold)
		}
	}
}
