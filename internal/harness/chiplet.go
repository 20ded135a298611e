package harness

import (
	"fmt"
	"time"

	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/gpu"
	"gpuscale/internal/stats"
	"gpuscale/internal/workloads"
)

// ChipletTimedStats is an MCM simulation result plus host cost.
type ChipletTimedStats struct {
	gpu.MCMStats
	Wall time.Duration
}

// ChipletResult holds one family's multi-chiplet case study (paper
// Section VII-D): 4- and 8-chiplet scale models predicting the 16-chiplet
// target under weak scaling.
type ChipletResult struct {
	// Bench is the weak-scaling family.
	Bench workloads.WeakBenchmark
	// Sizes are the chiplet counts (4, 8, 16).
	Sizes []int
	// Real maps chiplet count → measured statistics.
	Real map[int]ChipletTimedStats
	// Pred and Err map method → chiplet count → prediction / error.
	Pred map[string]map[int]float64
	Err  map[string]map[int]float64
	// SpeedupEvents and SpeedupWall are Fig. 7-style speedups for the
	// 16-chiplet target relative to simulating both scale models.
	SpeedupEvents float64
	SpeedupWall   float64
}

// RunChiplet executes the MCM case study for one weak-scaling family.
func (h *Harness) RunChiplet(wb workloads.WeakBenchmark) (*ChipletResult, error) {
	base := config.Target16Chiplet()
	sizes := config.ChipletStandardSizes
	res := &ChipletResult{
		Bench: wb,
		Sizes: sizes,
		Real:  make(map[int]ChipletTimedStats, len(sizes)),
	}
	for _, n := range sizes {
		cfg := config.MustScaleChiplets(base, n)
		st, err := h.runChiplet(cfg, wb.ForSMs(cfg.TotalSMs()))
		if err != nil {
			return nil, err
		}
		res.Real[n] = st
	}
	var err error
	res.Pred, res.Err, err = score(core.Input{Mode: core.WeakScaling}, sizes, func(n int) float64 { return res.Real[n].IPC })
	if err != nil {
		return nil, fmt.Errorf("harness: MCM prediction for %s: %w", wb.Name, err)
	}
	small, large := res.Real[sizes[0]], res.Real[sizes[1]]
	target := sizes[len(sizes)-1]
	scaleEvents := float64(small.SimEvents + large.SimEvents)
	res.SpeedupEvents = float64(res.Real[target].SimEvents) / scaleEvents
	res.SpeedupWall = float64(res.Real[target].Wall) / float64(small.Wall+large.Wall)
	return res, nil
}

// RunChipletAll runs the MCM case study for every family with an MCM
// configuration in Table IV (bfs, bs, as, bp, va — btree is excluded, as
// in the paper). The family × chiplet-count simulation grid is pre-warmed
// in parallel; the analysis runs sequentially over memoised results.
func (h *Harness) RunChipletAll() ([]*ChipletResult, error) {
	fams := workloads.WeakMCM()
	base := config.Target16Chiplet()
	var units []prewarmUnit
	for _, wb := range fams {
		for _, n := range config.ChipletStandardSizes {
			units = append(units, prewarmUnit{
				chiplet:    true,
				chipletCfg: config.MustScaleChiplets(base, n),
				w:          wb.ForSMs(n * base.Chiplet.NumSMs),
			})
		}
	}
	h.prewarm(units)
	var out []*ChipletResult
	for _, wb := range fams {
		r, err := h.RunChiplet(wb)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ChipletMeanMaxError aggregates a method's 16-chiplet prediction error.
func ChipletMeanMaxError(results []*ChipletResult, method string) (float64, float64) {
	var errs []float64
	for _, r := range results {
		target := r.Sizes[len(r.Sizes)-1]
		errs = append(errs, r.Err[method][target])
	}
	return stats.Mean(errs), stats.Max(errs)
}
