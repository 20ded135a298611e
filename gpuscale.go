// Package gpuscale is a Go implementation of GPU scale-model simulation
// (SeyyedAghaei, Naderan-Tahan, Eeckhout — HPCA 2024): predicting the
// performance of large GPU systems from simulations of much smaller,
// proportionally scaled-down "scale models", without ever simulating the
// target.
//
// The library bundles everything the methodology needs:
//
//   - a cycle-level GPU timing simulator (SMs with GTO warp scheduling,
//     private L1s with MSHRs, a crossbar NoC, a sliced shared LLC and
//     bandwidth-limited memory controllers), playing the role Accel-Sim
//     plays in the paper;
//   - the same simulator over several chiplets: a multi-chip-module (MCM)
//     GPU with first-touch page placement and an inter-chiplet network;
//   - miss-rate-curve collection, both by fast functional simulation and by
//     the classic single-pass stack-distance algorithm;
//   - the scale-model prediction model itself (correction factor,
//     pre-cliff / cliff / post-cliff regions, strong and weak scaling);
//   - the baseline extrapolations the paper compares against (proportional,
//     linear, power-law and logarithmic regression);
//   - the 21-benchmark strong-scaling suite and 6-family weak-scaling suite
//     of the paper's Tables II and IV, as synthetic workload generators;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quickstart
//
// Simulate a workload on two scale models, collect its miss-rate curve, and
// predict a 128-SM target:
//
//	ctx := context.Background()
//	bench, _ := gpuscale.BenchmarkByName("dct")
//	base := gpuscale.Baseline128()
//	small, _ := gpuscale.SimulateContext(ctx, gpuscale.MustScale(base, 8), bench.Workload)
//	large, _ := gpuscale.SimulateContext(ctx, gpuscale.MustScale(base, 16), bench.Workload)
//	curve, _ := gpuscale.MissRateCurve(bench.Workload, gpuscale.StandardConfigs())
//	preds, _ := gpuscale.Predict(gpuscale.PredictionInput{
//		Sizes:     []float64{8, 16, 32, 64, 128},
//		SmallIPC:  small.IPC,
//		LargeIPC:  large.IPC,
//		MPKI:      curve.MPKIs(),
//		FMemLarge: large.FMem,
//		Mode:      gpuscale.StrongScaling,
//	})
//
// # Parallel sweeps
//
// Every experiment cell — a (workload, configuration) pair — is independent,
// so sweeps parallelise perfectly. RunJobs fans a job list across a worker
// pool with deterministic, input-ordered results, per-job panic isolation
// and optional progress reporting:
//
//	jobs := []gpuscale.Job{
//		gpuscale.NewJob(gpuscale.MustScale(base, 8), bench.Workload),
//		gpuscale.NewJob(gpuscale.MustScale(base, 16), bench.Workload),
//	}
//	results, _ := gpuscale.RunJobs(context.Background(), jobs, gpuscale.EngineOptions{})
//
// A parallel sweep returns bit-identical statistics to a sequential one;
// see docs/ARCHITECTURE.md for why this holds.
//
// See the examples/ directory for complete programs.
package gpuscale

import (
	"context"

	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/engine"
	"gpuscale/internal/gpu"
	"gpuscale/internal/mrc"
	"gpuscale/internal/obs"
	"gpuscale/internal/regress"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
	"gpuscale/internal/workloads"
)

// Configuration types and constructors.
type (
	// SystemConfig describes a monolithic GPU (per-SM resources plus
	// proportionally scalable shared resources).
	SystemConfig = config.SystemConfig
	// ChipletConfig describes a multi-chip-module GPU.
	ChipletConfig = config.ChipletConfig
)

// Microarchitecture variants: a UarchVariant selects the warp scheduler
// ("gto", "lrr", "two-level"), L1 fill granularity ("line", "sectored"),
// NoC routing discipline ("xbar", "bufferless-deflect") and issue width.
// The zero value is the paper's Table III baseline. Variants change
// simulated timing, so they are part of a configuration's identity — the
// wire API hashes them (docs/UARCH.md).
type UarchVariant = uarch.Variant

// Variant enum values, re-exported for literal construction.
const (
	SchedGTO      = uarch.SchedGTO
	SchedLRR      = uarch.SchedLRR
	SchedTwoLevel = uarch.SchedTwoLevel
	L1Line        = uarch.L1Line
	L1Sectored    = uarch.L1Sectored
	RouteXbar     = uarch.RouteXbar
	RouteDeflect  = uarch.RouteDeflect
)

// ParseUarch parses a comma-separated variant spec such as
// "two-level,sectored,iw=2" (see docs/UARCH.md for the token grammar).
func ParseUarch(s string) (UarchVariant, error) { return uarch.ParseVariant(s) }

// Baseline128 returns the paper's Table III 128-SM baseline target system.
func Baseline128() SystemConfig { return config.Baseline128() }

// Scale derives a proportionally scaled configuration (Table I): per-SM
// resources unchanged, shared resources scaled by numSMs/base.NumSMs.
func Scale(base SystemConfig, numSMs int) (SystemConfig, error) {
	return config.Scale(base, numSMs)
}

// MustScale is Scale but panics on error.
func MustScale(base SystemConfig, numSMs int) SystemConfig {
	return config.MustScale(base, numSMs)
}

// StandardConfigs returns the five paper configurations (8, 16, 32, 64 and
// 128 SMs), smallest first.
func StandardConfigs() []SystemConfig { return config.StandardConfigs() }

// Target16Chiplet returns the paper's Table V 16-chiplet MCM target.
func Target16Chiplet() ChipletConfig { return config.Target16Chiplet() }

// ScaleChiplets derives an MCM configuration with a different chiplet count.
func ScaleChiplets(base ChipletConfig, numChiplets int) (ChipletConfig, error) {
	return config.ScaleChiplets(base, numChiplets)
}

// Workload types: implement Workload to simulate your own kernels, or use
// the built-in benchmark suite.
type (
	// Workload is a GPU kernel grid whose warps can be instantiated on
	// demand.
	Workload = trace.Workload
	// KernelSpec is a workload's launch geometry.
	KernelSpec = trace.KernelSpec
	// Program is one warp's instruction stream.
	Program = trace.Program
	// Instr is one dynamic warp instruction.
	Instr = trace.Instr
	// Phase is a building block for PhaseProgram-based workloads.
	Phase = trace.Phase
	// FuncWorkload adapts plain functions into a Workload.
	FuncWorkload = trace.FuncWorkload
)

// NewPhaseProgram builds a warp program from phases; see the trace package
// generators (SeqGen, RandGen, InterleaveGen) for address patterns.
func NewPhaseProgram(phases ...Phase) Program { return trace.NewPhaseProgram(phases...) }

// Simulation.
type (
	// SimStats is the result of a monolithic-GPU simulation.
	SimStats = gpu.Stats
	// SimOptions is the struct form of the simulation options, kept for
	// Job.Options and the WithOptions bridge. New code should prefer the
	// SimOption functional options on SimulateContext.
	SimOptions = gpu.Options
	// MCMStats is the result of a multi-chiplet simulation.
	MCMStats = gpu.MCMStats
)

// Observability: attach an Observer to a simulation (WithObserver) or a
// sweep and it collects a metrics registry (per-component counters, gauges,
// latency histograms), a cycle-stamped Chrome trace_event log, and interval
// samples of occupancy / queue depth / bandwidth utilisation. A nil
// *Observer disables everything at zero cost. One Observer is safe to share
// across a parallel sweep; each simulation gets its own trace stream.
type (
	// Observer records metrics, trace events and interval samples from the
	// simulations it is attached to. Use NewObserver; serialise with its
	// WriteTrace (Chrome trace_event JSON, loadable in chrome://tracing or
	// https://ui.perfetto.dev), WriteJSONL and WriteMetrics methods.
	Observer = obs.Recorder
	// ObserverOption configures NewObserver.
	ObserverOption = obs.Option
)

// NewObserver returns an enabled Observer.
func NewObserver(opts ...ObserverOption) *Observer { return obs.New(opts...) }

// ObserverSampleEvery sets the observer's default sampling interval in
// simulated cycles (overridable per run with WithSampleInterval).
func ObserverSampleEvery(cycles int64) ObserverOption { return obs.SampleEvery(cycles) }

// ObserverMaxEvents caps the observer's in-memory trace buffer; further
// events are dropped and counted.
func ObserverMaxEvents(n int) ObserverOption { return obs.MaxEvents(n) }

// SimOption is a functional option for SimulateContext and friends.
type SimOption func(*SimOptions)

// WithMaxCycles aborts the simulation with an error if it exceeds n cycles;
// zero means no limit.
func WithMaxCycles(n int64) SimOption {
	return func(o *SimOptions) { o.MaxCycles = n }
}

// WithWarmupInstructions discards statistics gathered before n instructions
// have issued, so the reported SimStats reflect steady state only.
func WithWarmupInstructions(n uint64) SimOption {
	return func(o *SimOptions) { o.WarmupInstructions = n }
}

// WithEventSkip enables or disables event-skip fast-forwarding (enabled by
// default; results are identical either way, only host time differs).
func WithEventSkip(enabled bool) SimOption {
	return func(o *SimOptions) { o.DisableEventSkip = !enabled }
}

// WithObserver attaches an Observer to the simulation. A nil observer is
// allowed and means "don't observe" (the hooks cost nothing).
func WithObserver(rec *Observer) SimOption {
	return func(o *SimOptions) { o.Recorder = rec }
}

// WithSampleInterval sets the observer's sampling cadence for this run, in
// simulated cycles; it has no effect without WithObserver.
func WithSampleInterval(cycles int64) SimOption {
	return func(o *SimOptions) { o.SampleEvery = cycles }
}

// WithOptions applies a whole SimOptions struct, bridging legacy
// struct-based call sites onto the functional-options API. Later options
// override its fields.
func WithOptions(opt SimOptions) SimOption {
	return func(o *SimOptions) { *o = opt }
}

// WithShards runs the simulation on n parallel shard goroutines — the
// simulated units (SMs on a monolithic GPU, chiplets on an MCM) split into
// n contiguous groups synchronised at a deterministic cycle barrier —
// returning statistics bit-identical to the sequential run (see
// docs/PARALLELISM.md for the execution model and why determinism
// survives). 0 or 1 means sequential; n above the unit count is clamped
// to it.
//
// Sharding is for multi-chiplet targets. Measured with two shards on a
// 2-vCPU host (docs/PARALLELISM.md, "Performance expectations"): 1.0–1.4x
// on 4-chiplet cells and about 1.1x on the 16-chiplet package; 0.8–1.0x at
// 128 SMs, where the sequential loop is now as fast; 0.6–1.2x on the
// 8/16-SM scale models, whose small cycles run on one core anyway. Run
// scale models sequentially and parallelise across them (RunJobs).
func WithShards(n int) SimOption {
	return func(o *SimOptions) { o.Shards = n }
}

// WithQuantum is accepted and ignored: quantum-relaxed barriers were
// removed after measuring 0.61x of the per-cycle fork-join
// (docs/PARALLELISM.md). Its only caller is bench/cycle.go's traced
// cycle-shard2 run, which this repository's benchmark contract freezes.
//
// Deprecated: has no effect; goes with the parallel.quantum_vs_barrier key
// at the next benchmark-contract revision.
func WithQuantum(int) SimOption {
	return func(*SimOptions) {}
}

// WithUarch selects the microarchitecture variant for this run, overriding
// a zero cfg.Uarch (setting both to different values is an error). The zero
// variant defers entirely to the configuration. Applies to monolithic and
// MCM simulations alike.
func WithUarch(v UarchVariant) SimOption {
	return func(o *SimOptions) { o.Uarch = v }
}

// SimulateContext runs workload w to completion on cfg and returns its
// statistics (IPC, f_mem, MPKI, utilisations, …). It is the blessed
// simulation entry point: cancelling ctx aborts the run loop within a few
// thousand iterations, and functional options select everything else
// (cycle limits, warm-up, observability).
func SimulateContext(ctx context.Context, cfg SystemConfig, w Workload, opts ...SimOption) (SimStats, error) {
	return SimulateSequenceContext(ctx, cfg, []Workload{w}, opts...)
}

// SimulateSequenceContext is SimulateContext over several kernels executed
// back to back (grid barriers between kernels, caches persisting across
// them), as multi-kernel GPU applications do.
func SimulateSequenceContext(ctx context.Context, cfg SystemConfig, kernels []Workload, opts ...SimOption) (SimStats, error) {
	sim, err := gpu.New(cfg, kernels, simOptions(opts))
	if err != nil {
		return SimStats{}, err
	}
	st, _, err := sim.RunContext(ctx)
	return st, err
}

// SimulateMCMContext is SimulateContext on a multi-chiplet GPU; every
// SimOption applies to it as to a monolithic run.
func SimulateMCMContext(ctx context.Context, cfg ChipletConfig, w Workload, opts ...SimOption) (MCMStats, error) {
	sim, err := gpu.NewMCM(cfg, []Workload{w}, simOptions(opts))
	if err != nil {
		return MCMStats{}, err
	}
	_, st, err := sim.RunContext(ctx)
	return st, err
}

// simOptions folds functional options into the struct form.
func simOptions(opts []SimOption) SimOptions {
	var o SimOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// Parallel experiment engine: fan independent simulation jobs across a
// worker pool with deterministic result ordering.
type (
	// Job is one simulation cell for RunJobs: a kernel sequence on one
	// system configuration.
	Job = engine.Job
	// JobResult is one Job's outcome, in job order.
	JobResult = engine.Result
	// EngineOptions tunes a RunJobs sweep (worker count, progress).
	EngineOptions = engine.Options
	// EngineProgress is the snapshot passed to the progress callback.
	EngineProgress = engine.Progress
)

// NewJob builds a single-kernel Job.
func NewJob(cfg SystemConfig, w Workload) Job { return engine.NewJob(cfg, w) }

// RunJobs executes jobs on a worker pool (default: all CPUs) and returns
// one result per job, in job order regardless of completion order. A
// failing or panicking simulation surfaces in its own JobResult.Err without
// aborting the sweep; the returned error is non-nil only when ctx is
// cancelled. Parallel sweeps return statistics bit-identical to sequential
// ones.
func RunJobs(ctx context.Context, jobs []Job, opt EngineOptions) ([]JobResult, error) {
	return engine.Run(ctx, jobs, opt)
}

// Miss-rate curves.
type (
	// Curve is a miss-rate curve: MPKI versus LLC capacity.
	Curve = mrc.Curve
	// CurvePoint is one sample of a Curve.
	CurvePoint = mrc.Point
)

// MissRateCurve computes w's miss-rate curve by functional simulation (no
// timing) across the given configurations — the fast path of the paper's
// Figure 3 workflow. w's programs are walked once, by the caller's
// goroutine; the per-configuration cache replays then run concurrently on
// every processor.
func MissRateCurve(w Workload, cfgs []SystemConfig) (Curve, error) {
	return mrc.FunctionalSweep(w, cfgs)
}

// MissRateCurveParallel is MissRateCurve with an explicit bound on the
// goroutines replaying configurations (<= 0 means the default, all CPUs; 1
// replays them one after another). The curve is identical at every bound.
func MissRateCurveParallel(w Workload, cfgs []SystemConfig, workers int) (Curve, error) {
	return mrc.FunctionalSweepParallel(w, cfgs, workers)
}

// StackDistanceCurve computes a fully-associative miss-rate curve with the
// single-pass reuse-distance algorithm at arbitrary capacities.
func StackDistanceCurve(w Workload, lineSize int, capacities []int64) (Curve, error) {
	return mrc.StackDistanceCurve(w, lineSize, capacities)
}

// Prediction — the paper's contribution.
type (
	// PredictionInput bundles the scale-model measurements and miss-rate
	// curve the predictor consumes.
	PredictionInput = core.Input
	// Prediction is the predicted IPC for one target size.
	Prediction = core.Prediction
	// ScalingMode selects strong or weak scaling.
	ScalingMode = core.ScalingMode
	// Region classifies a prediction against the miss-rate curve.
	Region = core.Region
)

// Scaling modes and regions.
const (
	StrongScaling = core.StrongScaling
	WeakScaling   = core.WeakScaling
	PreCliff      = core.PreCliff
	CliffRegion   = core.Cliff
	PostCliff     = core.PostCliff
)

// Predict runs scale-model prediction for every target size in the input.
func Predict(in PredictionInput) ([]Prediction, error) { return core.Predict(in) }

// PredictAt predicts one specific target size.
func PredictAt(in PredictionInput, target float64) (Prediction, error) {
	return core.PredictAt(in, target)
}

// CorrectionFactor returns C (Eq. 1): measured scale-model scaling divided
// by ideal proportional scaling.
func CorrectionFactor(smallSize, smallIPC, largeSize, largeIPC float64) float64 {
	return core.CorrectionFactor(smallSize, smallIPC, largeSize, largeIPC)
}

// DetectCliff scans a miss-rate curve (MPKI per doubling capacity) for a
// cliff; pass 0, 0 for the paper's default thresholds.
func DetectCliff(mpki []float64, ratio, minMPKI float64) (int, bool) {
	return core.DetectCliff(mpki, ratio, minMPKI)
}

// Baseline extrapolations.
type (
	// RegressionModel is a fitted baseline extrapolation.
	RegressionModel = regress.Model
	// RegressionPoint is a (size, IPC) observation.
	RegressionPoint = regress.Point
)

// FitBaselines fits the paper's four baselines (logarithmic, proportional,
// linear, power-law) on scale-model observations, keyed by name.
func FitBaselines(points []RegressionPoint) (map[string]RegressionModel, error) {
	return regress.FitAll(points)
}

// Benchmark suite.
type (
	// Benchmark is one Table II strong-scaling benchmark.
	Benchmark = workloads.Benchmark
	// WeakBenchmark is one Table IV weak-scaling family.
	WeakBenchmark = workloads.WeakBenchmark
	// ScalingClass is linear, sub-linear or super-linear.
	ScalingClass = workloads.ScalingClass
)

// Benchmarks returns the 21 strong-scaling benchmarks of Table II.
func Benchmarks() []Benchmark { return workloads.All() }

// BenchmarkByName returns one strong-scaling benchmark by abbreviation.
func BenchmarkByName(name string) (Benchmark, error) { return workloads.ByName(name) }

// WeakBenchmarks returns the six weak-scaling families of Table IV.
func WeakBenchmarks() []WeakBenchmark { return workloads.WeakAll() }

// WeakBenchmarkByName returns one weak-scaling family by name.
func WeakBenchmarkByName(name string) (WeakBenchmark, error) {
	return workloads.WeakByName(name)
}
