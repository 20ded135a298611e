package harness

import (
	"fmt"

	"gpuscale/internal/chiplet"
	"gpuscale/internal/config"
	"gpuscale/internal/core"
	"gpuscale/internal/regress"
	"gpuscale/internal/stats"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
	"time"
)

// ChipletTimedStats is an MCM simulation result plus host cost.
type ChipletTimedStats struct {
	chiplet.Stats
	Wall time.Duration
}

// runChiplet simulates w on the MCM configuration cfg, memoised by
// (config, workload) name with single-flight deduplication like Run.
func (h *Harness) runChiplet(cfg config.ChipletConfig, w trace.Workload) (ChipletTimedStats, error) {
	key := cfg.Name + "/" + w.Name()
	e := entryFor(&h.mu, h.chipletRuns, key)
	e.once.Do(func() {
		start := time.Now()
		sim, err := chiplet.New(cfg, w, chiplet.Options{Recorder: h.observer, Shards: h.mcmShards, Uarch: h.uarch})
		if err != nil {
			e.err = fmt.Errorf("harness: MCM %s on %s: %w", w.Name(), cfg.Name, err)
			return
		}
		st, err := sim.Run()
		if err != nil {
			e.err = fmt.Errorf("harness: MCM %s on %s: %w", w.Name(), cfg.Name, err)
			return
		}
		e.val = ChipletTimedStats{Stats: st, Wall: time.Since(start)}
	})
	return e.val, e.err
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
		Pred:  make(map[string]map[int]float64, len(Methods)),
		Err:   make(map[string]map[int]float64, len(Methods)),
	}
	for _, n := range sizes {
		cfg := config.MustScaleChiplets(base, n)
		w := wb.ForSMs(n * base.Chiplet.NumSMs)
		cached, err := h.runChiplet(cfg, w)
		if err != nil {
			return nil, err
		}
		res.Real[n] = cached
	}
	small, large := res.Real[sizes[0]], res.Real[sizes[1]]
	fsizes := make([]float64, len(sizes))
	for i, n := range sizes {
		fsizes[i] = float64(n)
	}
	preds, err := core.Predict(core.Input{
		Sizes:    fsizes,
		SmallIPC: small.IPC,
		LargeIPC: large.IPC,
		Mode:     core.WeakScaling,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: MCM prediction for %s: %w", wb.Name, err)
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
		return nil, fmt.Errorf("harness: MCM baseline fits for %s: %w", wb.Name, err)
	}
	for name, m := range models {
		res.Pred[name] = make(map[int]float64)
		for _, n := range sizes[2:] {
			res.Pred[name][n] = m.Predict(float64(n))
		}
	}
	for _, method := range Methods {
		res.Err[method] = make(map[int]float64)
		for _, n := range sizes[2:] {
			res.Err[method][n] = stats.AbsPctError(res.Pred[method][n], res.Real[n].IPC)
		}
	}
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
