package harness

import (
	"fmt"

	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/engine"
	"gpuscale/internal/mrc"
	"gpuscale/internal/stats"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// Result is one benchmark's scale-model study: every size of its ladder
// simulated, the first two sizes used as scale models, and every method's
// prediction scored at the remaining (target) sizes. Strong scaling
// (Figs. 1–5), weak scaling (Figs. 6–7) and the multi-chiplet case study
// (Fig. 8) all produce it; sizes are SMs, or chiplets in the case study.
type Result struct {
	// Name and Class identify the benchmark or weak-scaling family.
	Name  string
	Class workloads.ScalingClass
	// Sizes is the size ladder, scale models first.
	Sizes []int
	// Real maps size → measured simulation statistics.
	Real map[int]TimedStats
	// Curve is the miss-rate curve at Sizes' LLC capacities; strong
	// scaling only (weak-scaled workloads change with the size).
	Curve mrc.Curve
	// Pred maps method → target size → predicted IPC.
	Pred map[string]map[int]float64
	// Err maps method → target size → absolute percentage error.
	Err map[string]map[int]float64
}

// Speedup is the simulation speedup of predicting size n from the two
// scale models instead of simulating it: n's simulation cost divided by
// the cost of simulating both scale models, in simulator events (Fig. 7's
// metric) and in host wall-clock time.
func (r *Result) Speedup(n int) (events, wall float64) {
	small, large, target := r.Real[r.Sizes[0]], r.Real[r.Sizes[1]], r.Real[n]
	return float64(target.SimEvents) / float64(small.SimEvents+large.SimEvents),
		float64(target.Wall) / float64(small.Wall+large.Wall)
}

// targets returns ns, or r's target sizes when ns is empty.
func (r *Result) targets(ns []int) []int {
	if len(ns) == 0 {
		return r.Sizes[2:]
	}
	return ns
}

// study describes one benchmark's experiment: the size ladder, the
// simulation of each cell, and for strong scaling the workload whose
// miss-rate curve the predictor reads. A sweep's pre-warm and its analysis
// both read it, so every cell is named once.
type study struct {
	name  string
	class workloads.ScalingClass
	sizes []int
	job   func(n int) engine.Job
	// curve is the strong-scaling workload (nil: weak scaling, no curve).
	curve trace.Workload
}

// strongStudy runs b unchanged on each of the standard SM counts; a
// strong study's sizes may drop a prefix of them (RunStrongAlt).
func strongStudy(b workloads.Benchmark) study {
	base := config.Baseline128()
	return study{name: b.Name, class: b.Class, sizes: config.StandardSizes, curve: b.Workload,
		job: func(n int) engine.Job { return engine.NewJob(config.MustScale(base, n), b.Workload) }}
}

// weakStudy runs wb sized for each of the standard SM counts (paper
// Section VII-C).
func weakStudy(wb workloads.WeakBenchmark) study {
	base := config.Baseline128()
	return study{name: wb.Name, class: wb.Class, sizes: config.StandardSizes,
		job: func(n int) engine.Job { return engine.NewJob(config.MustScale(base, n), wb.ForSMs(n)) }}
}

// chipletStudy runs wb on 4, 8 and 16 chiplets of the Table V package,
// sized by each package's total SMs (paper Section VII-D).
func chipletStudy(wb workloads.WeakBenchmark) study {
	base := config.Target16Chiplet()
	return study{name: wb.Name, class: wb.Class, sizes: config.ChipletStandardSizes,
		job: func(n int) engine.Job {
			cfg := config.MustScaleChiplets(base, n)
			return engine.Job{MCM: &cfg, Kernels: []trace.Workload{wb.ForSMs(cfg.TotalSMs())}}
		}}
}

// units are the study's independent pre-warm cells: every simulation, and
// the miss-rate curve across the five standard configurations.
func (s study) units() []prewarmUnit {
	var units []prewarmUnit
	for _, n := range s.sizes {
		units = append(units, prewarmUnit{job: s.job(n)})
	}
	if s.curve != nil {
		units = append(units, prewarmUnit{w: s.curve, cfgs: config.StandardConfigs()})
	}
	return units
}

// runStudy simulates every cell of s (memoised) and scores every method.
func (h *Harness) runStudy(s study) (*Result, error) {
	res := &Result{Name: s.name, Class: s.class, Sizes: s.sizes, Real: make(map[int]TimedStats, len(s.sizes))}
	for _, n := range s.sizes {
		st, err := h.run(s.job(n))
		if err != nil {
			return nil, err
		}
		res.Real[n] = st
	}
	in := core.Input{Mode: core.WeakScaling}
	if s.curve != nil {
		// The curve is always collected across the five standard
		// configurations (one collection per workload, memoised); sizes
		// is a suffix of the standard sizes, so the predictor reads the
		// curve's last len(sizes) samples.
		full, err := h.Curve(s.curve, config.StandardConfigs())
		if err != nil {
			return nil, err
		}
		res.Curve = mrc.Curve{Points: full.Points[len(full.Points)-len(s.sizes):]}
		in = core.Input{MPKI: res.Curve.MPKIs(), FMemLarge: res.Real[s.sizes[1]].FMem, Mode: core.StrongScaling}
	}
	if err := res.score(in); err != nil {
		return nil, fmt.Errorf("harness: predicting %s: %w", s.name, err)
	}
	return res, nil
}

// each maps xs to their studies.
func each[T any](xs []T, f func(T) study) []study {
	out := make([]study, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// runAll pre-warms every cell of studies across the worker pool (see
// WithParallel), then analyses each study sequentially over the memoised
// results, so the output is identical to a fully sequential run.
func (h *Harness) runAll(studies []study) ([]*Result, error) {
	var units []prewarmUnit
	for _, s := range studies {
		units = append(units, s.units()...)
	}
	h.prewarm(units)
	out := make([]*Result, 0, len(studies))
	for _, s := range studies {
		r, err := h.runStudy(s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// score runs the paper's prediction step (core.PredictTargets) with the
// first two sizes as the scale models — in supplies the rest of the input:
// mode, miss-rate curve, f_mem — and scores every method at the remaining
// sizes against the measured IPC, filling Pred and Err.
func (r *Result) score(in core.Input) error {
	in.Sizes = make([]float64, len(r.Sizes))
	for i, n := range r.Sizes {
		in.Sizes[i] = float64(n)
	}
	in.SmallIPC, in.LargeIPC = r.Real[r.Sizes[0]].IPC, r.Real[r.Sizes[1]].IPC
	targets, err := core.PredictTargets(in)
	if err != nil {
		return err
	}
	r.Pred = make(map[string]map[int]float64, len(Methods))
	r.Err = make(map[string]map[int]float64, len(Methods))
	for _, method := range Methods {
		r.Pred[method] = make(map[int]float64, len(targets))
		r.Err[method] = make(map[int]float64, len(targets))
	}
	for _, t := range targets {
		n := int(t.Size)
		r.Pred[ScaleModel][n] = t.IPC
		for name, v := range t.Baselines {
			r.Pred[name][n] = v
		}
		for _, method := range Methods {
			r.Err[method][n] = stats.AbsPctError(r.Pred[method][n], r.Real[n].IPC)
		}
	}
	return nil
}

// RunStrong executes the full strong-scaling experiment for one benchmark:
// five simulations, the miss-rate curve, and all five prediction methods.
func (h *Harness) RunStrong(b workloads.Benchmark) (*Result, error) {
	return h.runStudy(strongStudy(b))
}

// RunStrongAlt runs the artifact-appendix variant using the 16- and 32-SM
// configurations as scale models to predict 64 and 128 SMs.
func (h *Harness) RunStrongAlt(b workloads.Benchmark) (*Result, error) {
	s := strongStudy(b)
	s.sizes = s.sizes[1:]
	return h.runStudy(s)
}

// RunStrongOf runs the strong-scaling experiment for each of bs as one
// sweep: their simulations and miss-rate curves are pre-warmed in
// parallel. alt selects RunStrongAlt's 16- and 32-SM scale models.
func (h *Harness) RunStrongOf(alt bool, bs ...workloads.Benchmark) ([]*Result, error) {
	studies := each(bs, strongStudy)
	for i := 0; alt && i < len(studies); i++ {
		studies[i].sizes = studies[i].sizes[1:]
	}
	return h.runAll(studies)
}

// RunStrongAll runs the strong-scaling experiment for every Table II
// benchmark: the 21 × 5 simulation grid and the 21 miss-rate curves are
// pre-warmed in parallel.
func (h *Harness) RunStrongAll() ([]*Result, error) {
	return h.RunStrongOf(false, workloads.All()...)
}

// RunWeak executes the weak-scaling experiment for one family: each system
// size runs its own proportionally scaled workload.
func (h *Harness) RunWeak(wb workloads.WeakBenchmark) (*Result, error) {
	return h.runStudy(weakStudy(wb))
}

// RunWeakAll runs the weak-scaling experiment for every Table IV family.
func (h *Harness) RunWeakAll() ([]*Result, error) {
	return h.runAll(each(workloads.WeakAll(), weakStudy))
}

// RunChiplet executes the multi-chiplet case study for one weak-scaling
// family: 4- and 8-chiplet scale models predicting the 16-chiplet target.
func (h *Harness) RunChiplet(wb workloads.WeakBenchmark) (*Result, error) {
	return h.runStudy(chipletStudy(wb))
}

// RunChipletAll runs the case study for every family with an MCM
// configuration in Table IV (bfs, bs, as, bp, va — btree is excluded, as
// in the paper).
func (h *Harness) RunChipletAll() ([]*Result, error) {
	return h.runAll(each(workloads.WeakMCM(), chipletStudy))
}

// MeanMaxError aggregates one method's error across results at the given
// target sizes — every target of each result when none are given —
// returning (mean, max): the summary numbers quoted in the paper's
// abstract and Section VII.
func MeanMaxError(results []*Result, method string, targets ...int) (mean, max float64) {
	var errs []float64
	for _, r := range results {
		for _, n := range r.targets(targets) {
			if e, ok := r.Err[method][n]; ok {
				errs = append(errs, e)
			}
		}
	}
	return stats.Mean(errs), stats.Max(errs)
}
