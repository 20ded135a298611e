package core

import (
	"testing"
)

func TestDetectCliffs(t *testing.T) {
	// Two cliffs: 8→3 and 2.5→0.5.
	cliffs := DetectCliffs([]float64{8, 3, 2.5, 0.5, 0.4}, 0, 0)
	if len(cliffs) != 2 || cliffs[0] != 0 || cliffs[1] != 2 {
		t.Errorf("cliffs = %v, want [0 2]", cliffs)
	}
	if got := DetectCliffs([]float64{8, 7, 6}, 0, 0); len(got) != 0 {
		t.Errorf("gradual curve produced cliffs: %v", got)
	}
}

func TestPredictMultiCliffDelegatesForSingleCliff(t *testing.T) {
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 198,
		MPKI:      []float64{8, 8, 8, 7.5, 0.3},
		FMemLarge: 0.6,
		Mode:      StrongScaling,
	}
	a, err := Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PredictMultiCliff(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("single-cliff divergence at %v: %+v vs %+v", a[i].Size, a[i], b[i])
		}
	}
}

func TestPredictMultiCliffTwoCliffs(t *testing.T) {
	// Cliffs between 16→32 (L2-sized set fits) and 64→128 (full set fits):
	// the paper's three-level-cache scenario.
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 200, // C = 1
		MPKI:      []float64{10, 10, 4, 4, 0.5},
		FMemLarge: 0.6,
		Mode:      StrongScaling,
	}
	preds, err := PredictMultiCliff(in)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Region != Cliff {
		t.Errorf("32-SM region = %v, want cliff", preds[0].Region)
	}
	// First cliff removes r1 = 1-4/10 = 0.6 of the 0.6 stall: 0.36.
	// IPC(32) = 200*2/(1-0.36) = 625.
	if !approx(preds[0].IPC, 625, 1e-6) {
		t.Errorf("first cliff IPC = %v, want 625", preds[0].IPC)
	}
	// Between cliffs: plain scaling.
	if preds[1].Region == Cliff {
		t.Error("64-SM should not be a cliff")
	}
	if !approx(preds[1].IPC, 1250, 1e-6) {
		t.Errorf("between-cliffs IPC = %v, want 1250", preds[1].IPC)
	}
	// Second cliff: remaining stall 0.24, removes r2 = 1-0.5/4 = 0.875 of
	// it: 0.21. IPC(128) = 1250*2/(1-0.21) = 3164.56...
	if preds[2].Region != Cliff {
		t.Errorf("128-SM region = %v, want cliff", preds[2].Region)
	}
	want := 1250 * 2 / (1 - 0.24*0.875)
	if !approx(preds[2].IPC, want, 1e-6) {
		t.Errorf("second cliff IPC = %v, want %v", preds[2].IPC, want)
	}
}

// TestPredictMultiCliffMeasuredZeroFMem: with a measured FMemLarge of 0
// no cliff removes any stall, so under C = 1 every target, across both
// cliffs, scales linearly from the large scale model.
func TestPredictMultiCliffMeasuredZeroFMem(t *testing.T) {
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 200,
		MPKI: []float64{10, 10, 4, 4, 0.5},
		Mode: StrongScaling,
	}
	preds, err := PredictMultiCliff(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if want := 200 * p.Size / 16; p.IPC != want {
			t.Errorf("%v SMs (%v): IPC %v, want %v", p.Size, p.Region, p.IPC, want)
		}
	}
}

func TestPredictMultiCliffWeakDelegates(t *testing.T) {
	in := Input{
		Sizes:    []float64{8, 16, 32},
		SmallIPC: 100, LargeIPC: 190,
		Mode: WeakScaling,
	}
	a, _ := Predict(in)
	b, err := PredictMultiCliff(in)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Error("weak-scaling divergence")
	}
}

func TestPredictMultiCliffStallNeverExhausts(t *testing.T) {
	// Three successive near-total cliffs: removed stall shares must
	// compose to below f_mem, never beyond (prediction stays finite and
	// positive).
	in := Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 200,
		MPKI:      []float64{64, 16, 4, 1, 0.25},
		FMemLarge: 0.9,
		Mode:      StrongScaling,
	}
	preds, err := PredictMultiCliff(in)
	if err != nil {
		t.Fatal(err)
	}
	prev := 200.0
	for _, p := range preds {
		if p.IPC <= prev || p.IPC != p.IPC /* NaN guard */ {
			t.Fatalf("prediction not finite/increasing at %v: %v", p.Size, p.IPC)
		}
		prev = p.IPC
	}
}
