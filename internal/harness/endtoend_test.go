package harness

import (
	"testing"

	"gpuscale/internal/workloads"
)

// endToEnd shares one harness across the end-to-end tests in this file so
// the expensive sweeps run once per `go test` invocation.
var endToEnd = New()

// TestStrongScalingHeadline reproduces the paper's headline strong-scaling
// claim: scale-model simulation predicts the 128-SM (and 64-SM) targets far
// more accurately than proportional scaling and the regression baselines,
// with logarithmic regression the worst method. Thresholds are shape-level
// (see DESIGN.md): the paper reports 4%/17% (avg/max) at 128 SMs on its
// infrastructure; this reproduction asserts avg < 10% and the full method
// ordering.
func TestStrongScalingHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full strong-scaling sweep")
	}
	results, err := endToEnd.RunStrongAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{128, 64} {
		smMean, smMax := MeanMaxError(results, ScaleModel, target)
		if smMean > 10 {
			t.Errorf("%d-SM: scale-model avg error %.1f%%, want < 10%%", target, smMean)
		}
		if smMax > 30 {
			t.Errorf("%d-SM: scale-model max error %.1f%%, want < 30%%", target, smMax)
		}
		for _, m := range []string{"logarithmic", "proportional", "linear", "power-law"} {
			mMean, _ := MeanMaxError(results, m, target)
			if mMean <= smMean {
				t.Errorf("%d-SM: %s avg error %.1f%% beats scale-model %.1f%%", target, m, mMean, smMean)
			}
		}
		logMean, _ := MeanMaxError(results, "logarithmic", target)
		for _, m := range []string{"linear", "power-law"} {
			mMean, _ := MeanMaxError(results, m, target)
			if logMean <= mMean {
				t.Errorf("%d-SM: logarithmic (%.1f%%) should be worse than %s (%.1f%%)", target, logMean, m, mMean)
			}
		}
	}
	// The cliff benchmarks are where the baselines fail hardest: every
	// super-linear benchmark must be predicted better by scale-model than
	// by power-law regression at 128 SMs.
	for _, r := range results {
		if r.Class != workloads.SuperLinear {
			continue
		}
		if r.Err[ScaleModel][128] >= r.Err["power-law"][128] {
			t.Errorf("%s: scale-model %.1f%% not better than power-law %.1f%% at the cliff",
				r.Name, r.Err[ScaleModel][128], r.Err["power-law"][128])
		}
	}
}

// TestWeakScalingHeadline reproduces the weak-scaling claims: small
// scale-model errors and a simulation speedup that grows with target size
// (the paper reports 1.5x/3.9x/9.3x for 32/64/128 SMs).
func TestWeakScalingHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full weak-scaling sweep")
	}
	results, err := endToEnd.RunWeakAll()
	if err != nil {
		t.Fatal(err)
	}
	mean, max := MeanMaxError(results, ScaleModel)
	if mean > 8 {
		t.Errorf("weak scale-model avg error %.1f%%, want < 8%%", mean)
	}
	if max > 25 {
		t.Errorf("weak scale-model max error %.1f%%, want < 25%%", max)
	}
	logMean, _ := MeanMaxError(results, "logarithmic")
	if logMean <= mean {
		t.Errorf("logarithmic (%.1f%%) should be far worse than scale-model (%.1f%%)", logMean, mean)
	}
	// Speedup must grow with target size for every family, and the
	// 128-SM average should be substantial.
	var sum float64
	for _, r := range results {
		s32, _ := r.Speedup(32)
		s64, _ := r.Speedup(64)
		s128, _ := r.Speedup(128)
		if !(s128 > s64 && s64 > s32) {
			t.Errorf("%s: speedups not monotone: %v / %v / %v", r.Name, s32, s64, s128)
		}
		sum += s128
	}
	if avg := sum / float64(len(results)); avg < 4 {
		t.Errorf("average 128-SM speedup %.1fx, want > 4x", avg)
	}
}
