package gpuscale_test

import (
	"context"
	"math"
	"testing"

	"gpuscale"
	"gpuscale/internal/engine"
	"gpuscale/internal/trace"
)

// smallLinear is a fast linear workload for facade-level tests.
func smallLinear(name string) gpuscale.Workload {
	return &gpuscale.FuncWorkload{
		WName: name,
		Spec:  gpuscale.KernelSpec{NumCTAs: 256, WarpsPerCTA: 2},
		Factory: func(cta, warp int) gpuscale.Program {
			g := &trace.SeqGen{Base: uint64(cta*2+warp) * 37 * 128, Stride: 128, Extent: 37 * 128}
			return gpuscale.NewPhaseProgram(gpuscale.Phase{N: 100, ComputePer: 9, Gen: g})
		},
	}
}

func TestFacadeConfigs(t *testing.T) {
	base := gpuscale.Baseline128()
	if base.NumSMs != 128 {
		t.Fatalf("baseline SMs = %d", base.NumSMs)
	}
	c, err := gpuscale.Scale(base, 16)
	if err != nil || c.NumSMs != 16 {
		t.Fatalf("Scale: %v %v", c.NumSMs, err)
	}
	if _, err := gpuscale.Scale(base, -1); err == nil {
		t.Error("negative size accepted")
	}
	cfgs := gpuscale.StandardConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("StandardConfigs = %d entries", len(cfgs))
	}
	mcm := gpuscale.Target16Chiplet()
	if mcm.TotalSMs() != 1024 {
		t.Fatalf("MCM SMs = %d", mcm.TotalSMs())
	}
	if _, err := gpuscale.ScaleChiplets(mcm, 4); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulate(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	st, err := gpuscale.SimulateContext(context.Background(), cfg, smallLinear("facade-sim"))
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0 || st.Instructions == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	st2, err := gpuscale.SimulateContext(context.Background(), cfg, smallLinear("facade-sim"),
		gpuscale.WithOptions(gpuscale.SimOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if st != st2 {
		t.Error("SimulateContext and WithOptions(SimOptions{}) disagree")
	}
}

func TestFacadeSimulateMCM(t *testing.T) {
	mcm := gpuscale.Target16Chiplet()
	mcm.Chiplet.NumSMs = 4
	cfg, err := gpuscale.ScaleChiplets(mcm, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := gpuscale.SimulateMCMContext(context.Background(), cfg, smallLinear("facade-mcm"))
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC <= 0 {
		t.Fatalf("degenerate MCM stats: %+v", st)
	}
	sharded, err := gpuscale.SimulateMCMContext(context.Background(), cfg, smallLinear("facade-mcm"),
		gpuscale.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if sharded != st {
		t.Errorf("WithShards(2) diverged from sequential\nsharded    %+v\nsequential %+v", sharded, st)
	}
}

// TestIntakeMCMJobMatchesFacade: an MCM Job run through the service's
// intake (engine.Intake, the one admission path of gpuscaled) returns the
// MCMStats SimulateMCMContext does, on the golden chiplet/bfs/2c cell.
func TestIntakeMCMJobMatchesFacade(t *testing.T) {
	cfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 2)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := gpuscale.BenchmarkByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := gpuscale.SimulateMCMContext(ctx, cfg, bench.Workload)
	if err != nil {
		t.Fatal(err)
	}
	in := engine.NewIntake(engine.IntakeOptions{Workers: 1})
	defer in.Close()
	r := in.Submit(ctx, gpuscale.Job{MCM: &cfg, Kernels: []gpuscale.Workload{bench.Workload}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.MCM != want {
		t.Errorf("intake MCM job diverged from SimulateMCMContext\nintake %+v\nfacade %+v", r.MCM, want)
	}
}

// TestFacadeSimulateMCMHonoursEveryOption: the options a monolithic run
// takes reach an MCM run too. Without event skip every cycle is visited, so
// only SimEvents — a count of visited SM-cycles — grows; a warm-up cutoff
// shortens the measured window, identically in every run loop.
func TestFacadeSimulateMCMHonoursEveryOption(t *testing.T) {
	mcm := gpuscale.Target16Chiplet()
	mcm.Chiplet.NumSMs = 4
	cfg, err := gpuscale.ScaleChiplets(mcm, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts ...gpuscale.SimOption) gpuscale.MCMStats {
		t.Helper()
		st, err := gpuscale.SimulateMCMContext(context.Background(), cfg, smallLinear("facade-mcm-opts"), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	plain := run()
	noSkip := run(gpuscale.WithEventSkip(false))
	if noSkip.SimEvents <= plain.SimEvents {
		t.Errorf("WithEventSkip(false) visited no more cycles (SimEvents %d vs %d): option not applied", noSkip.SimEvents, plain.SimEvents)
	}
	noSkip.SimEvents = plain.SimEvents
	if noSkip != plain {
		t.Errorf("WithEventSkip(false) changed results\nno skip %+v\nskip    %+v", noSkip, plain)
	}
	cutoff := plain.Instructions / 2
	warm := run(gpuscale.WithWarmupInstructions(cutoff))
	if warm.Cycles >= plain.Cycles || warm.Instructions >= plain.Instructions {
		t.Errorf("warm-up did not shorten the measured window: %+v vs %+v", warm, plain)
	}
	for name, opts := range map[string][]gpuscale.SimOption{
		"dense":    {gpuscale.WithOptions(gpuscale.SimOptions{UseLegacyLoop: true}), gpuscale.WithWarmupInstructions(cutoff)},
		"shards=2": {gpuscale.WithShards(2), gpuscale.WithWarmupInstructions(cutoff)},
	} {
		if got := run(opts...); got != warm {
			t.Errorf("warm-up %s run diverged from the event loop\n%s %+v\nevent %+v", name, name, got, warm)
		}
	}
}

func TestFacadeCurveAndPrediction(t *testing.T) {
	w := smallLinear("facade-curve")
	cfgs := gpuscale.StandardConfigs()
	curve, err := gpuscale.MissRateCurve(w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 5 {
		t.Fatalf("curve points = %d", len(curve.Points))
	}
	sd, err := gpuscale.StackDistanceCurve(w, 128, []int64{1 << 20, 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.Points) != 2 {
		t.Fatalf("stack curve points = %d", len(sd.Points))
	}
	preds, err := gpuscale.Predict(gpuscale.PredictionInput{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: 100, LargeIPC: 200,
		MPKI: curve.MPKIs(),
		Mode: gpuscale.StrongScaling,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("predictions = %d", len(preds))
	}
	p, err := gpuscale.PredictAt(gpuscale.PredictionInput{
		Sizes:    []float64{8, 16, 32},
		SmallIPC: 100, LargeIPC: 200,
		Mode: gpuscale.WeakScaling,
	}, 32)
	if err != nil || math.Abs(p.IPC-400) > 1e-9 {
		t.Fatalf("PredictAt = %v, %v", p.IPC, err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if c := gpuscale.CorrectionFactor(8, 100, 16, 180); math.Abs(c-0.9) > 1e-12 {
		t.Errorf("C = %v", c)
	}
	if _, ok := gpuscale.DetectCliff([]float64{8, 8, 0.4}, 0, 0); !ok {
		t.Error("cliff not detected")
	}
	models, err := gpuscale.FitBaselines([]gpuscale.RegressionPoint{{Size: 8, IPC: 100}, {Size: 16, IPC: 200}})
	if err != nil || len(models) != 4 {
		t.Fatalf("FitBaselines: %d, %v", len(models), err)
	}
	if got := models["proportional"].Predict(32); math.Abs(got-400) > 1e-9 {
		t.Errorf("proportional(32) = %v", got)
	}
}

func TestFacadeBenchmarkSuite(t *testing.T) {
	if n := len(gpuscale.Benchmarks()); n != 21 {
		t.Errorf("Benchmarks() = %d", n)
	}
	if _, err := gpuscale.BenchmarkByName("dct"); err != nil {
		t.Error(err)
	}
	if _, err := gpuscale.BenchmarkByName("zzz"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if n := len(gpuscale.WeakBenchmarks()); n != 6 {
		t.Errorf("WeakBenchmarks() = %d", n)
	}
	if _, err := gpuscale.WeakBenchmarkByName("va"); err != nil {
		t.Error(err)
	}
	if _, err := gpuscale.WeakBenchmarkByName("zzz"); err == nil {
		t.Error("unknown weak benchmark accepted")
	}
}

func TestFacadeRegionAndModeConstants(t *testing.T) {
	if gpuscale.StrongScaling.String() != "strong" || gpuscale.WeakScaling.String() != "weak" {
		t.Error("scaling mode constants wrong")
	}
	if gpuscale.PreCliff.String() != "pre-cliff" ||
		gpuscale.CliffRegion.String() != "cliff" ||
		gpuscale.PostCliff.String() != "post-cliff" {
		t.Error("region constants wrong")
	}
}
