// Package harness drives the paper's experiments end to end: it simulates
// every benchmark at every system size, collects miss-rate curves, runs the
// scale-model predictor and the four baseline extrapolations, and computes
// the per-benchmark prediction errors behind Figures 4–8 and the artifact
// appendix.
//
// Two properties make full-paper regeneration affordable. First, simulation
// results are memoised (single-flight, engine.Memo) so that the many
// benchmarks and tables sharing runs — e.g. Fig. 1, Fig. 4 and Fig. 5 all
// need the same strong-scaling sweeps — pay for each simulation once per
// process, even when requested concurrently. Second, the sweep entry points
// (RunStrongAll, RunStrongOf, RunWeakAll, RunChipletAll) pre-warm the memo
// by fanning every independent (configuration, workload) cell across a
// worker pool via internal/engine; the per-benchmark analysis then runs
// sequentially over cache hits, so parallel and sequential execution
// produce identical results. Construction-time functional options tune the
// behaviour: WithParallel sizes (or disables) the fan-out, WithProgress
// attaches a live progress callback, WithObserver an observability
// recorder, and WithShards the intra-simulation sharding for every run.
//
// The package also provides ResultStore, a two-level (memory + disk)
// single-flight byte store keyed by canonical request hashes; it backs the
// gpuscaled daemon's response cache so that restarts do not re-simulate.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gpuscale/internal/config"
	"gpuscale/internal/engine"
	"gpuscale/internal/gpu"
	"gpuscale/internal/mrc"
	"gpuscale/internal/obs"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// ScaleModel is the method name of the paper's contribution in result maps.
const ScaleModel = "scale-model"

// Methods lists all five prediction methods in the paper's presentation
// order: the four baselines followed by scale-model simulation.
var Methods = []string{"logarithmic", "proportional", "linear", "power-law", ScaleModel}

// TimedStats is a simulation result, monolithic or MCM, plus its host
// cost, used for the speedup figures.
type TimedStats struct {
	gpu.Stats
	Wall time.Duration
}

// Harness memoises simulation runs and miss-rate curves, deduplicating
// concurrent requests for the same key, and fans sweep entry points across
// a worker pool. The zero value is not usable; call New.
type Harness struct {
	runs engine.Memo[string, engine.Result] // monolithic and MCM runs: the config names are disjoint
	mrcs engine.Memo[string, mrc.Curve]

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
	h := &Harness{parallel: runtime.NumCPU()}
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
	return h.run(engine.NewJob(cfg, w))
}

// run is the single-flight body of every harness simulation, monolithic or
// MCM: the first caller for the job's (configuration, workload) label runs
// it to completion with the harness's options (engine.Exec), every other
// caller shares its result.
func (h *Harness) run(j engine.Job) (TimedStats, error) {
	r, err := h.runs.Do(context.Background(), j.Label(), func() (engine.Result, error) {
		j.Options = gpu.Options{Recorder: h.observer, Shards: h.shards, Uarch: h.uarch}
		r := engine.Exec(context.Background(), j)
		if r.Err != nil {
			return engine.Result{}, fmt.Errorf("harness: simulating %s: %w", j.Label(), r.Err)
		}
		return r, nil
	})
	return TimedStats{Stats: r.Stats, Wall: r.Wall}, err
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
	return h.mrcs.Do(context.Background(), key, func() (mrc.Curve, error) {
		c, err := mrc.FunctionalSweepParallel(w, cfgs, workers)
		if err != nil {
			return mrc.Curve{}, fmt.Errorf("harness: miss-rate curve for %s: %w", w.Name(), err)
		}
		return c, nil
	})
}

// prewarmUnit is one independent cell of a sweep's pre-warm phase: a
// timing simulation, or the miss-rate curve of w over cfgs when w is set.
type prewarmUnit struct {
	job  engine.Job
	w    trace.Workload
	cfgs []config.SystemConfig
}

// prewarm fans the units across the harness worker pool, filling the memo
// caches so that subsequent sequential analysis hits them. With parallelism
// <= 1 it is a no-op: the analysis paths compute lazily exactly as the
// sequential harness always has. Unit failures are not reported here, nor
// memoised: the analysis that reads a failed unit computes it again and
// reports the error with its experiment's context.
func (h *Harness) prewarm(units []prewarmUnit) {
	workers, progress := h.parallel, h.progress
	if workers <= 1 || len(units) <= 1 {
		return
	}
	note := engine.Tally(len(units), progress)
	// Errors are deliberately dropped: the sequential analysis recomputes a
	// failed unit and reports it.
	_, _ = engine.Map(context.Background(), workers, units,
		func(_ context.Context, _ int, u prewarmUnit) (struct{}, error) {
			if u.w != nil {
				_, err := h.curve(u.w, u.cfgs, 1)
				note(0, err)
			} else {
				st, err := h.run(u.job)
				note(st.Cycles, err)
			}
			return struct{}{}, nil
		})
}
