package harness

import (
	"strings"
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// tinyBench is a fast compute-heavy benchmark for harness plumbing tests.
func tinyBench(name string) workloads.Benchmark {
	return workloads.Benchmark{
		Name: name, FullName: "tiny", Suite: "test",
		PaperFootprintMB: 1, PaperInsnsM: 1, Class: workloads.Linear,
		Workload: &trace.FuncWorkload{
			WName: name,
			Spec:  trace.KernelSpec{NumCTAs: 4096, WarpsPerCTA: 2},
			Factory: func(cta, warp int) trace.Program {
				// A prime-sized (37-line) private region per warp keeps
				// slice and memory-controller indices decorrelated
				// across warps.
				g := &trace.SeqGen{Base: uint64(cta*2+warp) * 37 * 128, Stride: 128, Extent: 37 * 128}
				return trace.NewPhaseProgram(trace.Phase{N: 300, ComputePer: 9, Gen: g})
			},
		},
	}
}

func tinyWeak(name string) workloads.WeakBenchmark {
	return workloads.WeakBenchmark{
		Name: name, Class: workloads.Linear, MCM: true,
		ForSMs: func(numSMs int) trace.Workload {
			return &trace.FuncWorkload{
				WName: name + "-" + string(rune('a'+numSMs%26)),
				Spec:  trace.KernelSpec{NumCTAs: 32 * numSMs, WarpsPerCTA: 2},
				Factory: func(cta, warp int) trace.Program {
					g := &trace.SeqGen{Base: uint64(cta*2+warp) * 37 * 128, Stride: 128, Extent: 37 * 128}
					return trace.NewPhaseProgram(trace.Phase{N: 300, ComputePer: 9, Gen: g})
				},
			}
		},
	}
}

func TestRunMemoises(t *testing.T) {
	h := New()
	cfg := config.MustScale(config.Baseline128(), 8)
	w := tinyBench("memo").Workload
	a, err := h.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoised result differs (including Wall, which must be cached)")
	}
}

func TestRunStrongProducesAllMethods(t *testing.T) {
	h := New()
	r, err := h.RunStrong(tinyBench("strong1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Real) != 5 {
		t.Errorf("real runs = %d, want 5", len(r.Real))
	}
	for _, m := range Methods {
		for _, size := range []int{32, 64, 128} {
			if _, ok := r.Pred[m][size]; !ok {
				t.Errorf("method %s missing prediction at %d", m, size)
			}
			if e, ok := r.Err[m][size]; !ok || e < 0 {
				t.Errorf("method %s missing error at %d", m, size)
			}
		}
	}
	if err := r.Curve.Validate(); err != nil {
		t.Errorf("invalid curve: %v", err)
	}
}

func TestLinearBenchmarkPredictedWell(t *testing.T) {
	h := New()
	r, err := h.RunStrong(tinyBench("strong2"))
	if err != nil {
		t.Fatal(err)
	}
	if e := r.Err[ScaleModel][128]; e > 15 {
		t.Errorf("scale-model error on a clean linear workload = %.1f%%, want < 15%%", e)
	}
	// Logarithmic regression must be far off for linear scaling.
	if e := r.Err["logarithmic"][128]; e < 30 {
		t.Errorf("logarithmic error = %.1f%%, expected large underprediction", e)
	}
}

func TestRunStrongAltUsesLargerScaleModels(t *testing.T) {
	h := New()
	r, err := h.RunStrongAlt(tinyBench("strong3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sizes) != 4 || r.Sizes[0] != 16 || r.Sizes[1] != 32 {
		t.Errorf("alt sizes = %v, want [16 32 64 128]", r.Sizes)
	}
	if _, ok := r.Pred[ScaleModel][64]; !ok {
		t.Error("missing 64-SM prediction")
	}
	if _, ok := r.Pred[ScaleModel][32]; ok {
		t.Error("32 SMs is a scale model here, not a target")
	}
}

func TestRunWeak(t *testing.T) {
	h := New()
	r, err := h.RunWeak(tinyWeak("weak1"))
	if err != nil {
		t.Fatal(err)
	}
	if e := r.Err[ScaleModel][128]; e > 20 {
		t.Errorf("weak scale-model error = %.1f%%, want small for linear family", e)
	}
	for _, n := range []int{32, 64, 128} {
		if events, _ := r.Speedup(n); events <= 0 {
			t.Errorf("speedup at %d not positive", n)
		}
	}
	// Larger targets must yield larger event-based speedups.
	s32, _ := r.Speedup(32)
	if s128, _ := r.Speedup(128); s128 <= s32 {
		t.Errorf("speedup should grow with target size: %v vs %v", s128, s32)
	}
}

func TestMeanMaxError(t *testing.T) {
	rs := []*Result{
		{Err: map[string]map[int]float64{"m": {128: 10}}},
		{Err: map[string]map[int]float64{"m": {128: 30}}},
	}
	mean, max := MeanMaxError(rs, "m", 128)
	if mean != 20 || max != 30 {
		t.Errorf("mean/max = %v/%v, want 20/30", mean, max)
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(out, "a") || !strings.Contains(out, "333") {
		t.Errorf("table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	h := New()
	r, err := h.RunStrong(tinyBench("strong4"))
	if err != nil {
		t.Fatal(err)
	}
	rs := []*Result{r}
	if out := RenderErrorTable(rs, 128); !strings.Contains(out, "scale-model") {
		t.Error("error table missing method column")
	}
	if out := RenderScalingCurves(r); !strings.Contains(out, "real") {
		t.Error("scaling curves missing real column")
	}
	if out := RenderMissRateCurve(r); !strings.Contains(out, "MPKI") {
		t.Error("miss-rate curve missing MPKI")
	}
	wr, err := h.RunWeak(tinyWeak("weak2"))
	if err != nil {
		t.Fatal(err)
	}
	wrs := []*Result{wr}
	if out := RenderWeakErrorTable(wrs); !strings.Contains(out, "weak") {
		t.Error("weak table missing title")
	}
	if out := RenderSpeedupTable(wrs); !strings.Contains(out, "x") {
		t.Error("speedup table missing values")
	}
}

func TestRunChipletSmall(t *testing.T) {
	h := New()
	r, err := h.RunChiplet(tinyWeak("weak3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Real) != 3 {
		t.Errorf("chiplet runs = %d, want 3", len(r.Real))
	}
	if e := r.Err[ScaleModel][16]; e > 25 {
		t.Errorf("chiplet scale-model error = %.1f%%, want small for linear family", e)
	}
	if events, wall := r.Speedup(16); events <= 0 || wall <= 0 {
		t.Error("chiplet speedups not recorded")
	}
	if out := RenderChipletTable([]*Result{r}); !strings.Contains(out, "16-chiplet") {
		t.Error("chiplet table missing title")
	}
}
