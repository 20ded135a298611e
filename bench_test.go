// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Heavy simulations
// are memoised in a process-wide harness, so a full `go test -bench=.` run
// pays for each simulation once; the measured loop of each benchmark is the
// analysis step (prediction, error aggregation, rendering), and the numbers
// the paper reports are attached as custom benchmark metrics.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Inspect a rendered table:
//
//	go test -bench=BenchmarkFigure4a -v
package gpuscale_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gpuscale"
	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/gpu"
	"gpuscale/internal/harness"
	"gpuscale/internal/stats"
	"gpuscale/internal/workloads"
)

// strongResults runs (or reuses) the full strong-scaling sweep. The
// 21 × 5 simulation grid is fanned across all CPUs by the harness's
// worker-pool pre-warm (internal/engine); results are identical to a
// sequential sweep, so every figure regenerated below is unaffected by the
// parallelism.
func strongResults(b *testing.B) []*harness.StrongResult {
	b.Helper()
	rs, err := harness.Default.RunStrongAll()
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// weakResults runs (or reuses) the weak-scaling sweep, parallelised the
// same way as strongResults.
func weakResults(b *testing.B) []*harness.WeakResult {
	b.Helper()
	rs, err := harness.Default.RunWeakAll()
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkEngineParallelSweep measures the parallel experiment engine on a
// paperbench-style grid (three benchmarks of different scaling classes on
// the 8- and 16-SM scale models), reporting the wall-clock speedup of the
// all-CPU worker pool over the sequential path and verifying bit-identical
// statistics. On a single-CPU host the speedup metric is ~1 by
// construction.
func BenchmarkEngineParallelSweep(b *testing.B) {
	base := gpuscale.Baseline128()
	var jobs []gpuscale.Job
	for _, name := range []string{"dct", "bfs", "pf"} {
		bench, err := gpuscale.BenchmarkByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range []int{8, 16} {
			jobs = append(jobs, gpuscale.NewJob(gpuscale.MustScale(base, n), bench.Workload))
		}
	}
	ctx := context.Background()
	t0 := testingNow()
	seq, err := sweep(ctx, 1, jobs)
	if err != nil {
		b.Fatal(err)
	}
	tSeq := testingNow() - t0
	t0 = testingNow()
	par, err := sweep(ctx, 0, jobs)
	if err != nil {
		b.Fatal(err)
	}
	tPar := testingNow() - t0
	for i := range jobs {
		if seq[i] != par[i] {
			b.Fatalf("job %q: parallel stats differ from sequential", jobs[i].Label())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = par[0].IPC
	}
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
	b.ReportMetric(tSeq/tPar, "wall_speedup")
}

// BenchmarkTable1ScaleModelConfigs regenerates Table I: deriving the 8- and
// 16-SM scale models and the 32/64-SM targets from the 128-SM baseline by
// proportional resource scaling.
func BenchmarkTable1ScaleModelConfigs(b *testing.B) {
	base := gpuscale.Baseline128()
	for i := 0; i < b.N; i++ {
		for _, n := range config.StandardSizes {
			cfg := gpuscale.MustScale(base, n)
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	small := gpuscale.MustScale(base, 8)
	b.ReportMetric(float64(small.LLCSizeBytes)/(1<<20), "llc8sm_MiB")
	b.ReportMetric(small.TotalMemBWGBps(), "membw8sm_GBps")
	b.Logf("\n8-SM scale model: %.3f MiB LLC, %.1f GB/s NoC, %.0f GB/s DRAM",
		float64(small.LLCSizeBytes)/(1<<20), small.NoCBisectionGBps, small.TotalMemBWGBps())
}

// BenchmarkFigure1ScalingBehavior regenerates Figure 1: IPC versus system
// size for the three representative benchmarks (dct super-linear, bfs
// sub-linear, pf linear), reporting each one's per-SM scaling ratio from 8
// to 128 SMs.
func BenchmarkFigure1ScalingBehavior(b *testing.B) {
	for _, name := range []string{"dct", "bfs", "pf"} {
		bench, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		r, err := harness.Default.RunStrong(bench)
		if err != nil {
			b.Fatal(err)
		}
		ratio := (r.Real[128].IPC / 128) / (r.Real[8].IPC / 8)
		b.ReportMetric(ratio, name+"_perSM_128v8")
		b.Logf("\n%s", harness.RenderScalingCurves(r))
	}
	for i := 0; i < b.N; i++ {
		_ = config.StandardSizes
	}
}

// BenchmarkFigure2MissRateCurves regenerates Figure 2: MPKI versus LLC
// capacity for dct (cliff), bfs (gradual) and pf (flat).
func BenchmarkFigure2MissRateCurves(b *testing.B) {
	curves := map[string]gpuscale.Curve{}
	for _, name := range []string{"dct", "bfs", "pf"} {
		bench, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		r, err := harness.Default.RunStrong(bench)
		if err != nil {
			b.Fatal(err)
		}
		curves[name] = r.Curve
		b.Logf("\n%s", harness.RenderMissRateCurve(r))
	}
	var cliffs int
	for i := 0; i < b.N; i++ {
		cliffs = 0
		for _, c := range curves {
			if _, ok := gpuscale.DetectCliff(c.MPKIs(), 0, 0); ok {
				cliffs++
			}
		}
	}
	// Exactly dct should have a cliff.
	b.ReportMetric(float64(cliffs), "cliffs_detected")
	first, last := curves["pf"].Points[0].MPKI, curves["pf"].Points[4].MPKI
	b.ReportMetric(first/last, "pf_flatness")
}

// BenchmarkTable2WorkloadCharacteristics regenerates Table II: the
// 21-benchmark suite with its scaling classification.
func BenchmarkTable2WorkloadCharacteristics(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(gpuscale.Benchmarks())
	}
	b.ReportMetric(float64(n), "benchmarks")
	b.ReportMetric(float64(len(workloads.ByClass(workloads.SuperLinear))), "super_linear")
	b.ReportMetric(float64(len(workloads.ByClass(workloads.SubLinear))), "sub_linear")
	b.ReportMetric(float64(len(workloads.ByClass(workloads.Linear))), "linear")
}

// BenchmarkTable3BaselineConfig regenerates Table III: the 128-SM baseline.
func BenchmarkTable3BaselineConfig(b *testing.B) {
	var cfg gpuscale.SystemConfig
	for i := 0; i < b.N; i++ {
		cfg = gpuscale.Baseline128()
	}
	b.ReportMetric(float64(cfg.NumSMs), "sms")
	b.ReportMetric(float64(cfg.MaxThreadsPerSM()), "threads_per_sm")
	b.ReportMetric(cfg.TotalMemBWGBps(), "dram_GBps")
}

// benchFig4 shares the Figure 4 logic for both target sizes.
func benchFig4(b *testing.B, target int) {
	results := strongResults(b)
	b.ResetTimer()
	var mean, max float64
	for i := 0; i < b.N; i++ {
		mean, max = harness.MeanMaxError(results, harness.ScaleModel, target)
	}
	b.ReportMetric(mean, "scale_model_avg_err_pct")
	b.ReportMetric(max, "scale_model_max_err_pct")
	for _, m := range []string{"power-law", "linear", "proportional", "logarithmic"} {
		mm, _ := harness.MeanMaxError(results, m, target)
		b.ReportMetric(mm, m+"_avg_err_pct")
	}
	b.Logf("\n%s", harness.RenderErrorTable(results, target))
}

// BenchmarkFigure4aStrongScaling128 regenerates Figure 4(a): strong-scaling
// IPC prediction error for the 128-SM target across all five methods.
func BenchmarkFigure4aStrongScaling128(b *testing.B) { benchFig4(b, 128) }

// BenchmarkFigure4bStrongScaling64 regenerates Figure 4(b): the 64-SM
// target.
func BenchmarkFigure4bStrongScaling64(b *testing.B) { benchFig4(b, 64) }

// BenchmarkFigure5PredictedCurves regenerates Figure 5: real and predicted
// IPC as a function of system size for twelve select benchmarks spanning
// all three scaling classes.
func BenchmarkFigure5PredictedCurves(b *testing.B) {
	names := []string{"dct", "fwt", "as", "lu", "bfs", "gr", "sr", "btree", "pf", "ht", "at", "gemm"}
	var rendered string
	for _, name := range names {
		bench, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		r, err := harness.Default.RunStrong(bench)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", harness.RenderScalingCurves(r))
		rendered = harness.RenderScalingCurves(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = len(rendered)
	}
	b.ReportMetric(float64(len(names)), "benchmarks_plotted")
}

// BenchmarkTable4WeakScalingConfigs regenerates Table IV: the weak-scaling
// families and their input scaling.
func BenchmarkTable4WeakScalingConfigs(b *testing.B) {
	var fams []gpuscale.WeakBenchmark
	for i := 0; i < b.N; i++ {
		fams = gpuscale.WeakBenchmarks()
	}
	b.ReportMetric(float64(len(fams)), "families")
	mcm := 0
	for _, f := range fams {
		if f.MCM {
			mcm++
		}
		b.Logf("%-6s %-10s CTAs: %d → %d", f.Name, f.Class, f.CTAsAt(8), f.CTAsAt(128))
	}
	b.ReportMetric(float64(mcm), "mcm_families")
}

// BenchmarkFigure6WeakScaling regenerates Figure 6: weak-scaling prediction
// error for the 32/64/128-SM targets.
func BenchmarkFigure6WeakScaling(b *testing.B) {
	results := weakResults(b)
	b.ResetTimer()
	var mean, max float64
	for i := 0; i < b.N; i++ {
		mean, max = harness.WeakMeanMaxError(results, harness.ScaleModel)
	}
	b.ReportMetric(mean, "scale_model_avg_err_pct")
	b.ReportMetric(max, "scale_model_max_err_pct")
	lm, _ := harness.WeakMeanMaxError(results, "logarithmic")
	b.ReportMetric(lm, "logarithmic_avg_err_pct")
	b.Logf("\n%s", harness.RenderWeakErrorTable(results))
}

// BenchmarkFigure7WeakScalingSpeedup regenerates Figure 7: the simulation
// speedup of predicting a weak-scaled target from its scale models instead
// of simulating it.
func BenchmarkFigure7WeakScalingSpeedup(b *testing.B) {
	results := weakResults(b)
	b.ResetTimer()
	var avg128 float64
	for i := 0; i < b.N; i++ {
		var xs []float64
		for _, r := range results {
			xs = append(xs, r.SpeedupEvents[128])
		}
		avg128 = stats.Mean(xs)
	}
	b.ReportMetric(avg128, "speedup_128sm_events")
	var walls, s32, s64 []float64
	for _, r := range results {
		walls = append(walls, r.SpeedupWall[128])
		s32 = append(s32, r.SpeedupEvents[32])
		s64 = append(s64, r.SpeedupEvents[64])
	}
	b.ReportMetric(stats.Mean(walls), "speedup_128sm_wall")
	b.ReportMetric(stats.Mean(s32), "speedup_32sm_events")
	b.ReportMetric(stats.Mean(s64), "speedup_64sm_events")
	b.Logf("\n%s", harness.RenderSpeedupTable(results))
}

// BenchmarkTable5ChipletConfig regenerates Table V: the 16-chiplet MCM
// target configuration.
func BenchmarkTable5ChipletConfig(b *testing.B) {
	var cfg gpuscale.ChipletConfig
	for i := 0; i < b.N; i++ {
		cfg = gpuscale.Target16Chiplet()
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.TotalSMs()), "total_sms")
	b.ReportMetric(float64(cfg.NumChiplets), "chiplets")
	b.ReportMetric(cfg.InterChipletGBpsPerChiplet, "interchiplet_GBps")
}

// BenchmarkFigure8ChipletPrediction regenerates Figure 8: 16-chiplet IPC
// prediction error from 4- and 8-chiplet scale models.
func BenchmarkFigure8ChipletPrediction(b *testing.B) {
	results, err := harness.Default.RunChipletAll()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var mean, max float64
	for i := 0; i < b.N; i++ {
		mean, max = harness.ChipletMeanMaxError(results, harness.ScaleModel)
	}
	b.ReportMetric(mean, "scale_model_avg_err_pct")
	b.ReportMetric(max, "scale_model_max_err_pct")
	var sp []float64
	for _, r := range results {
		sp = append(sp, r.SpeedupEvents)
	}
	b.ReportMetric(stats.Mean(sp), "speedup_16c_events")
	b.Logf("\n%s", harness.RenderChipletTable(results))
}

// BenchmarkArtifactAltScaleModels regenerates the artifact appendix E.2
// experiment: using 16- and 32-SM scale models to predict 64 and 128 SMs.
// As the paper's artifact evaluation observed, errors are higher than with
// the 8/16-SM models but scale-model simulation still leads.
func BenchmarkArtifactAltScaleModels(b *testing.B) {
	var results []*harness.StrongResult
	for _, bench := range workloads.All() {
		r, err := harness.Default.RunStrongAlt(bench)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, r)
	}
	b.ResetTimer()
	var mean128, mean64 float64
	for i := 0; i < b.N; i++ {
		mean128, _ = harness.MeanMaxError(results, harness.ScaleModel, 128)
		mean64, _ = harness.MeanMaxError(results, harness.ScaleModel, 64)
	}
	b.ReportMetric(mean128, "scale_model_avg128_err_pct")
	b.ReportMetric(mean64, "scale_model_avg64_err_pct")
	b.Logf("\n%s", harness.RenderErrorTable(results, 128))
}

// BenchmarkAblationNoCliffModel quantifies the value of miss-curve-driven
// cliff handling: the super-linear benchmarks re-predicted with the cliff
// rules disabled (pre-cliff extrapolation everywhere), as a one-size
// regression would do.
func BenchmarkAblationNoCliffModel(b *testing.B) {
	var withCliff, without []float64
	for _, bench := range workloads.ByClass(workloads.SuperLinear) {
		r, err := harness.Default.RunStrong(bench)
		if err != nil {
			b.Fatal(err)
		}
		withCliff = append(withCliff, r.Err[harness.ScaleModel][128])
		// Re-predict pretending the miss-rate curve were flat.
		flat := make([]float64, 5)
		for i := range flat {
			flat[i] = r.Curve.Points[0].MPKI
		}
		in := core.Input{
			Sizes:    []float64{8, 16, 32, 64, 128},
			SmallIPC: r.Real[8].IPC, LargeIPC: r.Real[16].IPC,
			MPKI: flat, FMemLarge: r.Real[16].FMem, Mode: core.StrongScaling,
		}
		preds, err := core.Predict(in)
		if err != nil {
			b.Fatal(err)
		}
		without = append(without, stats.AbsPctError(preds[2].IPC, r.Real[128].IPC))
	}
	b.ResetTimer()
	var with, wout float64
	for i := 0; i < b.N; i++ {
		with, wout = stats.Mean(withCliff), stats.Mean(without)
	}
	b.ReportMetric(with, "with_cliff_avg_err_pct")
	b.ReportMetric(wout, "without_cliff_avg_err_pct")
	if wout <= with {
		b.Logf("WARNING: cliff handling did not help (%.1f%% vs %.1f%%)", with, wout)
	}
}

// BenchmarkAblationNoCorrectionFactor quantifies the per-workload
// correction factor: sub-linear benchmarks re-predicted with C forced to 1
// (pure proportional scaling from the large scale model).
func BenchmarkAblationNoCorrectionFactor(b *testing.B) {
	var withC, withoutC []float64
	for _, bench := range workloads.ByClass(workloads.SubLinear) {
		r, err := harness.Default.RunStrong(bench)
		if err != nil {
			b.Fatal(err)
		}
		withC = append(withC, r.Err[harness.ScaleModel][128])
		withoutC = append(withoutC, r.Err["proportional"][128])
	}
	b.ResetTimer()
	var with, wout float64
	for i := 0; i < b.N; i++ {
		with, wout = stats.Mean(withC), stats.Mean(withoutC)
	}
	b.ReportMetric(with, "with_C_avg_err_pct")
	b.ReportMetric(wout, "without_C_avg_err_pct")
}

// BenchmarkAblationNonProportionalScaleModel quantifies the proportional-
// scaling design rule: an 8-SM scale model whose LLC, NoC and DRAM keep the
// full 128-SM capacities mispredicts a cliff workload badly, because its
// working set already fits the unscaled LLC.
func BenchmarkAblationNonProportionalScaleModel(b *testing.B) {
	bench, err := workloads.ByName("dct")
	if err != nil {
		b.Fatal(err)
	}
	r, err := harness.Default.RunStrong(bench)
	if err != nil {
		b.Fatal(err)
	}
	base := gpuscale.Baseline128()
	unscaled := func(n int) gpuscale.SystemConfig {
		c := gpuscale.MustScale(base, n)
		c.LLCSizeBytes = base.LLCSizeBytes // shared resources NOT scaled
		c.LLCSlices = base.LLCSlices
		c.NoCBisectionGBps = base.NoCBisectionGBps
		c.MemControllers = base.MemControllers
		c.Name = fmt.Sprintf("gpu-%dsm-unscaled", n)
		return c
	}
	s8, err := harness.Default.Run(unscaled(8), bench.Workload)
	if err != nil {
		b.Fatal(err)
	}
	s16, err := harness.Default.Run(unscaled(16), bench.Workload)
	if err != nil {
		b.Fatal(err)
	}
	// With full-size shared resources the scale models sit post-cliff, so
	// the only defensible extrapolation from them is pre-cliff scaling.
	in := core.Input{
		Sizes:    []float64{8, 16, 32, 64, 128},
		SmallIPC: s8.IPC, LargeIPC: s16.IPC,
		MPKI: r.Curve.MPKIs(), FMemLarge: s16.FMem, Mode: core.WeakScaling,
	}
	preds, err := core.Predict(in)
	if err != nil {
		b.Fatal(err)
	}
	var badErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		badErr = stats.AbsPctError(preds[2].IPC, r.Real[128].IPC)
	}
	b.ReportMetric(r.Err[harness.ScaleModel][128], "proportional_model_err_pct")
	b.ReportMetric(badErr, "unscaled_model_err_pct")
}

// BenchmarkAblationEventSkip verifies that event-skip fast-forwarding
// changes host time only: identical simulated statistics, measured speedup
// reported as a metric.
func BenchmarkAblationEventSkip(b *testing.B) {
	bench, err := workloads.ByName("va")
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	run := func(disable bool) (gpu.Stats, float64) {
		start := testingNow()
		st, err := gpuscale.SimulateContext(context.Background(), cfg, bench.Workload, gpuscale.WithEventSkip(!disable))
		if err != nil {
			b.Fatal(err)
		}
		return st, testingNow() - start
	}
	fast, tFast := run(false)
	slow, tSlow := run(true)
	if fast.IPC != slow.IPC || fast.Cycles != slow.Cycles || fast.FMem != slow.FMem {
		b.Fatalf("event skip changed simulation results: %+v vs %+v", fast, slow)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fast.SkippedCycles
	}
	b.ReportMetric(tSlow/tFast, "host_speedup")
	b.ReportMetric(float64(fast.SkippedCycles), "skipped_cycles")
}

// testingNow returns a monotonic seconds reading for coarse host-time
// ratios inside benchmarks.
func testingNow() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

// TestNilObserverNoAllocs guards the zero-cost contract of the
// observability layer: without an observer, every hook the simulator's
// per-cycle hot path can reach (counters, gauges, histograms, stream
// events) must be a nil-check branch with zero allocations. AllocsPerRun
// is unreliable under the race detector, so `make race` runs this test
// separately without -race.
func TestNilObserverNoAllocs(t *testing.T) {
	var rec *gpuscale.Observer
	if rec.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	st := rec.Stream("nil-guard")
	sc := rec.Scope("nil-guard")
	c := sc.Counter("c")
	g := sc.Gauge("g")
	h := sc.Histogram("h", nil)
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		c.Inc()
		g.Set(1.5)
		h.Observe(42)
		st.Instant(1, "cat", "name")
		st.Span(0, 2, "cat", "name")
	}); n != 0 {
		t.Fatalf("nil-observer hooks allocated %.1f times per run, want 0", n)
	}
}

// BenchmarkAblationWarpScheduler compares the Table III GTO policy against
// loose round-robin (LRR) on a latency-sensitive cliff benchmark: the
// policy changes absolute IPC but not the scale-model methodology, whose
// inputs are whatever the simulator measures.
func BenchmarkAblationWarpScheduler(b *testing.B) {
	bench, err := workloads.ByName("va")
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	gto, err := gpuscale.SimulateContext(context.Background(), cfg, bench.Workload)
	if err != nil {
		b.Fatal(err)
	}
	cfgLRR := cfg
	cfgLRR.Uarch.Scheduler = gpuscale.SchedLRR
	cfgLRR.Name = cfg.Name + "-lrr"
	lrr, err := gpuscale.SimulateContext(context.Background(), cfgLRR, bench.Workload)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gto.IPC
	}
	b.ReportMetric(gto.IPC, "gto_ipc")
	b.ReportMetric(lrr.IPC, "lrr_ipc")
	b.ReportMetric(lrr.IPC/gto.IPC, "lrr_over_gto")
}

// BenchmarkAblationWarmup quantifies warm-up filtering: measuring only the
// steady state (after half the instructions) removes cold-miss noise from
// the reported miss rates while leaving the run itself untouched.
func BenchmarkAblationWarmup(b *testing.B) {
	bench, err := workloads.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	plain, err := gpuscale.SimulateContext(context.Background(), cfg, bench.Workload)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := gpuscale.SimulateContext(context.Background(), cfg, bench.Workload,
		gpuscale.WithWarmupInstructions(plain.Instructions/2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = warm.LLCMPKI
	}
	b.ReportMetric(plain.LLCMPKI, "mpki_full_run")
	b.ReportMetric(warm.LLCMPKI, "mpki_steady_state")
	b.ReportMetric(plain.IPC, "ipc_full_run")
	b.ReportMetric(warm.IPC, "ipc_steady_state")
}
