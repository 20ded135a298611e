// Package harness drives the paper's experiments end to end: it simulates
// every benchmark at every system size, collects miss-rate curves, runs the
// scale-model predictor and the four baseline extrapolations, and computes
// the per-benchmark prediction errors behind Figures 4–8 and the artifact
// appendix.
//
// Two properties make full-paper regeneration affordable. First, simulation
// results are memoised (with single-flight deduplication) so that the many
// benchmarks and tables sharing runs — e.g. Fig. 1, Fig. 4 and Fig. 5 all
// need the same strong-scaling sweeps — pay for each simulation once per
// process, even when requested concurrently. Second, the sweep entry points
// (RunStrongAll, RunWeakAll, RunChipletAll) pre-warm the memo by fanning
// every independent (configuration, workload) cell across a worker pool via
// internal/engine; the per-benchmark analysis then runs sequentially over
// cache hits, so parallel and sequential execution produce identical
// results. Construction-time functional options tune the behaviour:
// WithParallel sizes (or disables) the fan-out, WithProgress attaches a
// live progress callback, WithObserver an observability recorder,
// and WithShards the intra-simulation sharding for every run.
//
// The package also provides ResultStore, a two-level (memory + disk)
// single-flight byte store keyed by canonical request hashes; it backs the
// gpuscaled daemon's response cache so that restarts do not re-simulate.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/engine"
	"gpuscale/internal/gpu"
	"gpuscale/internal/mrc"
	"gpuscale/internal/obs"
	"gpuscale/internal/stats"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
	"gpuscale/internal/workloads"
)

// ScaleModel is the method name of the paper's contribution in result maps.
const ScaleModel = "scale-model"

// Methods lists all five prediction methods in the paper's presentation
// order: the four baselines followed by scale-model simulation.
var Methods = []string{"logarithmic", "proportional", "linear", "power-law", ScaleModel}

// TimedStats is a simulation result plus its host cost, used for the
// weak-scaling speedup figure.
type TimedStats struct {
	gpu.Stats
	Wall time.Duration
}

// runEntry is a single-flight memo cell: the first caller computes under
// the sync.Once, every other caller (concurrent or later) waits for and
// shares the same result.
type runEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// entryFor returns (creating if needed) the memo cell for key.
func entryFor[V any](mu *sync.Mutex, m map[string]*runEntry[V], key string) *runEntry[V] {
	mu.Lock()
	defer mu.Unlock()
	e, ok := m[key]
	if !ok {
		e = &runEntry[V]{}
		m[key] = e
	}
	return e
}

// Harness memoises simulation runs and miss-rate curves, deduplicating
// concurrent requests for the same key, and fans sweep entry points across
// a worker pool. The zero value is not usable; call New.
type Harness struct {
	mu   sync.Mutex                  // guards the memo maps
	runs map[string]*runEntry[timed] // monolithic and MCM runs: the config names are disjoint
	mrcs map[string]*runEntry[mrc.Curve]

	// Configuration: set by the options in New, read-only afterwards.
	parallel int
	shards   int
	uarch    uarch.Variant
	progress func(engine.Progress)
	observer *obs.Recorder
}

// New returns an empty Harness configured by opts; the default is
// parallelism runtime.NumCPU(), no progress callback, no observer, and
// sequential simulations. See options.go for the available options.
func New(opts ...Option) *Harness {
	h := &Harness{
		runs:     make(map[string]*runEntry[timed]),
		mrcs:     make(map[string]*runEntry[mrc.Curve]),
		parallel: runtime.NumCPU(),
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// Default is a process-wide harness shared by the benchmark suite, so that
// every table and figure reuses the same memoised simulations.
var Default = New()

// Run simulates w on cfg, memoised by (config, workload) name. Concurrent
// calls with the same key run the simulation once and share the result.
func (h *Harness) Run(cfg config.SystemConfig, w trace.Workload) (TimedStats, error) {
	r, err := h.run(cfg.Name, w, func() (*gpu.Simulator, error) {
		return gpu.New(cfg, []trace.Workload{w}, h.options())
	})
	return TimedStats{Stats: r.st, Wall: r.wall}, err
}

// runChiplet is Run on the MCM configuration cfg.
func (h *Harness) runChiplet(cfg config.ChipletConfig, w trace.Workload) (ChipletTimedStats, error) {
	r, err := h.run(cfg.Name, w, func() (*gpu.Simulator, error) {
		return gpu.NewMCM(cfg, []trace.Workload{w}, h.options())
	})
	return ChipletTimedStats{MCMStats: r.mcm, Wall: r.wall}, err
}

// timed is one memoised run: the statistics of a monolithic or an MCM
// simulation (the other is zero) and its host cost.
type timed struct {
	st   gpu.Stats
	mcm  gpu.MCMStats
	wall time.Duration
}

// run is the single-flight body of Run and runChiplet: the first caller
// for (cfgName, workload) builds the simulator with build and runs it to
// completion, every other caller shares its result.
func (h *Harness) run(cfgName string, w trace.Workload, build func() (*gpu.Simulator, error)) (timed, error) {
	e := entryFor(&h.mu, h.runs, cfgName+"/"+w.Name())
	e.once.Do(func() {
		start := time.Now()
		sim, err := build()
		var r timed
		if err == nil {
			r.st, r.mcm, err = sim.RunContext(context.Background())
		}
		if err != nil {
			e.err = fmt.Errorf("harness: simulating %s on %s: %w", w.Name(), cfgName, err)
			return
		}
		r.wall = time.Since(start)
		e.val = r
	})
	return e.val, e.err
}

// options are the simulator options every harness run uses.
func (h *Harness) options() gpu.Options {
	return gpu.Options{Recorder: h.observer, Shards: h.shards, Uarch: h.uarch}
}

// Curve computes (memoised, single-flight) the functional-simulation
// miss-rate curve of w across the given configurations. The memo key is the
// workload plus the configuration ladder, so one workload can be swept over
// several ladders. The replays run on up to the harness's parallelism.
func (h *Harness) Curve(w trace.Workload, cfgs []config.SystemConfig) (mrc.Curve, error) {
	return h.curve(w, cfgs, h.parallel)
}

// curve is Curve with an explicit bound on the replay goroutines of a sweep
// this call starts; the pre-warm pool, already h.parallel wide, passes 1.
func (h *Harness) curve(w trace.Workload, cfgs []config.SystemConfig, workers int) (mrc.Curve, error) {
	key := w.Name()
	for _, cfg := range cfgs {
		key += "/" + cfg.Name
	}
	e := entryFor(&h.mu, h.mrcs, key)
	e.once.Do(func() {
		c, err := mrc.FunctionalSweepParallel(w, cfgs, workers)
		if err != nil {
			e.err = fmt.Errorf("harness: miss-rate curve for %s: %w", w.Name(), err)
			return
		}
		e.val = c
	})
	return e.val, e.err
}

// prewarmUnit is one independent cell of a sweep's pre-warm phase: either a
// timing simulation or a miss-rate-curve collection.
type prewarmUnit struct {
	cfg   config.SystemConfig
	w     trace.Workload
	curve bool                  // collect the MRC instead of a timing run
	cfgs  []config.SystemConfig // curve configurations (curve units only)

	chiplet    bool // run the MCM configuration instead
	chipletCfg config.ChipletConfig
}

// prewarm fans the units across the harness worker pool, filling the memo
// caches so that subsequent sequential analysis hits them. With parallelism
// <= 1 it is a no-op: the analysis paths compute lazily exactly as the
// sequential harness always has. Unit failures are not reported here — the
// analysis path re-encounters the memoised error with full context.
func (h *Harness) prewarm(units []prewarmUnit) {
	workers, progress := h.parallel, h.progress
	if workers <= 1 || len(units) <= 1 {
		return
	}
	note := engine.Tally(len(units), progress)
	// Errors are deliberately dropped: each unit's outcome (value or error)
	// is memoised, and the sequential analysis re-reads it with the right
	// experiment context attached.
	_, _ = engine.Map(context.Background(), workers, units,
		func(_ context.Context, _ int, u prewarmUnit) (struct{}, error) {
			switch {
			case u.curve:
				_, err := h.curve(u.w, u.cfgs, 1)
				note(0, err)
			case u.chiplet:
				st, err := h.runChiplet(u.chipletCfg, u.w)
				note(st.Cycles, err)
			default:
				st, err := h.Run(u.cfg, u.w)
				note(st.Cycles, err)
			}
			return struct{}{}, nil
		})
}

// StrongResult holds one benchmark's full strong-scaling experiment.
type StrongResult struct {
	// Bench is the benchmark under study.
	Bench workloads.Benchmark
	// Sizes are the simulated system sizes (8…128 SMs).
	Sizes []int
	// Real maps size → measured simulation statistics.
	Real map[int]TimedStats
	// Curve is the miss-rate curve across the five LLC capacities.
	Curve mrc.Curve
	// Pred maps method → size → predicted IPC (target sizes only).
	Pred map[string]map[int]float64
	// Err maps method → size → absolute percentage error.
	Err map[string]map[int]float64
}

// RunStrong executes the full strong-scaling experiment for one benchmark:
// five simulations, the miss-rate curve, and all five prediction methods.
func (h *Harness) RunStrong(b workloads.Benchmark) (*StrongResult, error) {
	return h.runStrongFrom(b, config.StandardSizes)
}

// RunStrongAlt runs the artifact-appendix variant using the 16- and 32-SM
// configurations as scale models to predict 64 and 128 SMs.
func (h *Harness) RunStrongAlt(b workloads.Benchmark) (*StrongResult, error) {
	return h.runStrongFrom(b, []int{16, 32, 64, 128})
}

// runStrongFrom runs the strong-scaling experiment on sizes, a window of
// the standard sizes whose first two are the scale models.
func (h *Harness) runStrongFrom(b workloads.Benchmark, sizes []int) (*StrongResult, error) {
	base := config.Baseline128()
	res := &StrongResult{
		Bench: b,
		Sizes: sizes,
		Real:  make(map[int]TimedStats, len(sizes)),
	}
	for _, n := range sizes {
		st, err := h.Run(config.MustScale(base, n), b.Workload)
		if err != nil {
			return nil, err
		}
		res.Real[n] = st
	}
	// The miss-rate curve is always collected across the five standard
	// configurations (one collection per workload, memoised); prediction
	// uses the samples matching this experiment's sizes.
	full, err := h.Curve(b.Workload, config.StandardConfigs())
	if err != nil {
		return nil, err
	}
	offset := -1
	for i, n := range config.StandardSizes {
		if n == sizes[0] {
			offset = i
			break
		}
	}
	if offset < 0 || offset+len(sizes) > len(full.Points) {
		return nil, fmt.Errorf("harness: sizes %v are not a window of the standard sizes", sizes)
	}
	res.Curve = mrc.Curve{Points: full.Points[offset : offset+len(sizes)]}
	in := core.Input{
		MPKI:      res.Curve.MPKIs(),
		FMemLarge: res.Real[sizes[1]].FMem,
		Mode:      core.StrongScaling,
	}
	res.Pred, res.Err, err = score(in, sizes, func(n int) float64 { return res.Real[n].IPC })
	if err != nil {
		return nil, fmt.Errorf("harness: predicting %s: %w", b.Name, err)
	}
	return res, nil
}

// score runs the paper's prediction step (core.PredictTargets) with the
// first two of sizes as the scale models — in supplies the rest of the
// input: mode, miss-rate curve, f_mem — and scores every method at the
// remaining sizes against ipc, the measured IPC at a size. pred and errs
// map method → target size → predicted IPC and absolute percentage error.
func score(in core.Input, sizes []int, ipc func(int) float64) (pred, errs map[string]map[int]float64, err error) {
	in.Sizes = make([]float64, len(sizes))
	for i, n := range sizes {
		in.Sizes[i] = float64(n)
	}
	in.SmallIPC, in.LargeIPC = ipc(sizes[0]), ipc(sizes[1])
	targets, err := core.PredictTargets(in)
	if err != nil {
		return nil, nil, err
	}
	pred = make(map[string]map[int]float64, len(Methods))
	errs = make(map[string]map[int]float64, len(Methods))
	for _, method := range Methods {
		pred[method] = make(map[int]float64, len(targets))
		errs[method] = make(map[int]float64, len(targets))
	}
	for _, t := range targets {
		n := int(t.Size)
		pred[ScaleModel][n] = t.IPC
		for name, v := range t.Baselines {
			pred[name][n] = v
		}
		for _, method := range Methods {
			errs[method][n] = stats.AbsPctError(pred[method][n], ipc(n))
		}
	}
	return pred, errs, nil
}

// RunStrongAll runs the strong-scaling experiment for every Table II
// benchmark. The 21 × 5 simulation grid and the 21 miss-rate curves are
// pre-warmed in parallel (see WithParallel); the analysis itself is
// sequential over memoised results, so the output is identical to a fully
// sequential run.
func (h *Harness) RunStrongAll() ([]*StrongResult, error) {
	benches := workloads.All()
	base := config.Baseline128()
	var units []prewarmUnit
	for _, b := range benches {
		for _, n := range config.StandardSizes {
			units = append(units, prewarmUnit{cfg: config.MustScale(base, n), w: b.Workload})
		}
		units = append(units, prewarmUnit{w: b.Workload, curve: true, cfgs: config.StandardConfigs()})
	}
	h.prewarm(units)
	var out []*StrongResult
	for _, b := range benches {
		r, err := h.RunStrong(b)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MeanMaxError aggregates one method's error at one target size across
// results, returning (mean, max) — the summary numbers quoted in the
// paper's abstract and Section VII.
func MeanMaxError(results []*StrongResult, method string, size int) (float64, float64) {
	var errs []float64
	for _, r := range results {
		if e, ok := r.Err[method][size]; ok {
			errs = append(errs, e)
		}
	}
	return stats.Mean(errs), stats.Max(errs)
}
