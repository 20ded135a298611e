package gpu

import (
	"testing"

	"gpuscale/internal/trace"
)

func TestWarmupDiscardsColdStats(t *testing.T) {
	// Every warp first streams cold data and then loops over an
	// L1-resident window. Without warm-up the miss rates blend both
	// phases; with a warm-up cutoff past the cold phase, the measured L1
	// miss rate collapses toward zero.
	mk := func() trace.Workload {
		return &trace.FuncWorkload{
			WName: "warmup-w",
			Spec:  trace.KernelSpec{NumCTAs: 16, WarpsPerCTA: 2},
			Factory: func(cta, warp int) trace.Program {
				id := uint64(cta*2 + warp)
				cold := &trace.SeqGen{Base: 1<<40 + id*(64*128), Stride: 128, Extent: 64 * 128}
				hotLoop := &trace.SeqGen{Base: id * 512, Stride: 128, Extent: 512}
				return trace.NewPhaseProgram(
					trace.Phase{N: 64, ComputePer: 0, Gen: cold},
					trace.Phase{N: 512, ComputePer: 1, Gen: hotLoop},
				)
			},
		}
	}
	cfg := testConfig(8)
	plain, err := simulate(mono(cfg), Options{}, mk())
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(16 * 2 * (64 + 512))
	warm, err := simulate(mono(cfg), Options{WarmupInstructions: total / 2}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if warm.L1MissRate >= plain.L1MissRate {
		t.Errorf("warm-up did not reduce measured L1 miss rate: %.3f vs %.3f",
			warm.L1MissRate, plain.L1MissRate)
	}
	if warm.Cycles >= plain.Cycles {
		t.Errorf("warmed window (%d cycles) should be shorter than the full run (%d)",
			warm.Cycles, plain.Cycles)
	}
	if warm.Instructions >= plain.Instructions {
		t.Errorf("warmed instruction count %d should be below total %d",
			warm.Instructions, plain.Instructions)
	}
}

func TestWarmupZeroIsNoOp(t *testing.T) {
	w := streamWorkload(16, 2, 40)
	a, err := simulate(mono(testConfig(8)), Options{}, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulate(mono(testConfig(8)), Options{WarmupInstructions: 0}, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("WarmupInstructions=0 changed results")
	}
}

func TestWarmupBeyondEndStillReports(t *testing.T) {
	// A warm-up threshold the run never reaches: stats are never reset,
	// results equal the plain run.
	w := streamWorkload(8, 2, 20)
	a, err := simulate(mono(testConfig(8)), Options{}, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := simulate(mono(testConfig(8)), Options{WarmupInstructions: 1 << 40}, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("unreachable warm-up threshold changed results")
	}
}
