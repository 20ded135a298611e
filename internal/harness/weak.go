package harness

import (
	"fmt"

	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/regress"
	"gpuscale/internal/stats"
	"gpuscale/internal/workloads"
)

// WeakResult holds one weak-scaling family's experiment: each system size
// runs its own proportionally scaled workload (paper Section VII-C).
type WeakResult struct {
	// Bench is the weak-scaling family.
	Bench workloads.WeakBenchmark
	// Sizes are the system sizes simulated.
	Sizes []int
	// Real maps size → measured statistics of the scaled workload.
	Real map[int]TimedStats
	// Pred and Err map method → target size → prediction / error.
	Pred map[string]map[int]float64
	Err  map[string]map[int]float64
	// SpeedupEvents maps target size → simulation speedup measured in
	// simulator events (Fig. 7's metric: cost of simulating the target
	// divided by the cost of simulating both scale models).
	SpeedupEvents map[int]float64
	// SpeedupWall is the same ratio in host wall-clock time.
	SpeedupWall map[int]float64
}

// RunWeak executes the weak-scaling experiment for one family.
func (h *Harness) RunWeak(wb workloads.WeakBenchmark) (*WeakResult, error) {
	base := config.Baseline128()
	sizes := config.StandardSizes
	res := &WeakResult{
		Bench:         wb,
		Sizes:         sizes,
		Real:          make(map[int]TimedStats, len(sizes)),
		Pred:          make(map[string]map[int]float64, len(Methods)),
		Err:           make(map[string]map[int]float64, len(Methods)),
		SpeedupEvents: make(map[int]float64),
		SpeedupWall:   make(map[int]float64),
	}
	for _, n := range sizes {
		st, err := h.Run(config.MustScale(base, n), wb.ForSMs(n))
		if err != nil {
			return nil, err
		}
		res.Real[n] = st
	}
	small, large := res.Real[sizes[0]], res.Real[sizes[1]]

	fsizes := make([]float64, len(sizes))
	for i, n := range sizes {
		fsizes[i] = float64(n)
	}
	in := core.Input{
		Sizes:    fsizes,
		SmallIPC: small.IPC,
		LargeIPC: large.IPC,
		Mode:     core.WeakScaling,
	}
	preds, err := core.Predict(in)
	if err != nil {
		return nil, fmt.Errorf("harness: weak prediction for %s: %w", wb.Name, err)
	}
	res.Pred[ScaleModel] = make(map[int]float64)
	for _, p := range preds {
		res.Pred[ScaleModel][int(p.Size)] = p.IPC
	}
	models, err := regress.FitAll([]regress.Point{
		{Size: fsizes[0], IPC: small.IPC},
		{Size: fsizes[1], IPC: large.IPC},
	})
	if err != nil {
		return nil, fmt.Errorf("harness: weak baseline fits for %s: %w", wb.Name, err)
	}
	for name, m := range models {
		res.Pred[name] = make(map[int]float64)
		for _, n := range sizes[2:] {
			res.Pred[name][n] = m.Predict(float64(n))
		}
	}
	scaleCostEvents := float64(small.SimEvents + large.SimEvents)
	scaleCostWall := float64(small.Wall + large.Wall)
	for _, method := range Methods {
		res.Err[method] = make(map[int]float64)
		for _, n := range sizes[2:] {
			res.Err[method][n] = stats.AbsPctError(res.Pred[method][n], res.Real[n].IPC)
		}
	}
	for _, n := range sizes[2:] {
		res.SpeedupEvents[n] = float64(res.Real[n].SimEvents) / scaleCostEvents
		res.SpeedupWall[n] = float64(res.Real[n].Wall) / scaleCostWall
	}
	return res, nil
}

// RunWeakAll runs the weak-scaling experiment for every Table IV family.
// The family × size simulation grid is pre-warmed in parallel (see
// WithParallel); the analysis runs sequentially over memoised results.
func (h *Harness) RunWeakAll() ([]*WeakResult, error) {
	fams := workloads.WeakAll()
	base := config.Baseline128()
	var units []prewarmUnit
	for _, wb := range fams {
		for _, n := range config.StandardSizes {
			units = append(units, prewarmUnit{cfg: config.MustScale(base, n), w: wb.ForSMs(n)})
		}
	}
	h.prewarm(units)
	var out []*WeakResult
	for _, wb := range fams {
		r, err := h.RunWeak(wb)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WeakMeanMaxError aggregates a method's weak-scaling error across families
// and target sizes (Fig. 6 aggregates all three target sizes).
func WeakMeanMaxError(results []*WeakResult, method string) (float64, float64) {
	var errs []float64
	for _, r := range results {
		for _, n := range r.Sizes[2:] {
			errs = append(errs, r.Err[method][n])
		}
	}
	return stats.Mean(errs), stats.Max(errs)
}
