// Package analytic is the microsecond-scale prediction tier: a purely
// analytical model of the internal/gpu simulator, monolithic and
// multi-chiplet, that estimates IPC, f_mem and the LLC miss-rate curve from a workload's
// *static* structure — no instruction is ever replayed and no simulator
// state exists.
//
// The pipeline has two halves:
//
//   - Feature extraction (features.go): the phase descriptors of a
//     deterministic sample of warp programs (trace.PhaseDescriber) are
//     merged into access classes — shared cyclic rings, private streams,
//     random walks over shared footprints, L1-bypassing hot lines — plus
//     the per-warp instruction mix. This is configuration-independent and
//     memoized per workload name.
//
//   - The model (model.go): per-class cache-hit estimates (capacity
//     reasoning, the miss-rate-curve cliff for cyclic rings), a roofline
//     cap per bandwidth resource (DRAM, NoC bisection, inter-chiplet
//     links, LLC slice camping), an M/M/1-style queueing correction, and
//     a damped fixed point between average load latency and achieved IPC,
//     mirroring the SM issue semantics (compute = ComputeLatency warp
//     cycles, load = memory latency, store = 1).
//
// Every estimate carries a confidence score in [0, 1] built from the
// model's known blind spots; the serving tier escalates to the cycle
// simulator below a threshold (docs/ANALYTIC.md).
package analytic

import (
	"sync"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// Estimate is one analytical prediction of a simulation cell.
type Estimate struct {
	// IPC is the estimated total instructions per cycle across the system.
	IPC float64
	// FMem is the estimated memory-stall fraction (Eq. 3's f_mem).
	FMem float64
	// Cycles and Instructions estimate the cell's totals.
	Cycles       float64
	Instructions float64
	// LLCMPKI is the estimated LLC misses per thousand instructions.
	LLCMPKI float64
	// L1MissRate is the estimated fraction of memory references missing L1.
	L1MissRate float64
	// RemoteFraction is the estimated share of post-L1 accesses served by
	// a remote chiplet (MCM only).
	RemoteFraction float64
	// Confidence in [0, 1] scores how much of the workload the model
	// actually captured; see docs/ANALYTIC.md for the penalty schedule.
	Confidence float64
}

// featEntry memoizes one workload's extracted features.
type featEntry struct {
	f   *features
	err error
}

// featCache memoizes features by workload name. Names are unique per
// workload shape in this repository (weak families embed the SM count),
// and the benchmark universe is bounded, so the cache cannot grow without
// bound in steady state.
var featCache sync.Map

// featuresOf returns w's features, extracting them on first sight.
func featuresOf(w trace.Workload) (*features, error) {
	if v, ok := featCache.Load(w.Name()); ok {
		e := v.(*featEntry)
		return e.f, e.err
	}
	f, err := extractFeatures(w)
	v, _ := featCache.LoadOrStore(w.Name(), &featEntry{f: f, err: err})
	e := v.(*featEntry)
	return e.f, e.err
}

// EstimateCell analytically predicts one monolithic simulation cell.
func EstimateCell(cfg config.SystemConfig, w trace.Workload) (Estimate, error) {
	f, err := featuresOf(w)
	if err != nil {
		return Estimate{}, err
	}
	sol := solve(monoResources(cfg), f)
	return applyUarchPenalty(finish(sol, f), cfg.Uarch.Normalize()), nil
}

// EstimateMCM analytically predicts one multi-chip-module cell.
func EstimateMCM(cfg config.ChipletConfig, w trace.Workload) (Estimate, error) {
	f, err := featuresOf(w)
	if err != nil {
		return Estimate{}, err
	}
	sol := solve(mcmResources(cfg), f)
	return applyUarchPenalty(finish(sol, f), cfg.Chiplet.Uarch.Normalize()), nil
}

// applyUarchPenalty discounts an estimate's confidence for non-default
// microarchitecture variants. The analytic model is calibrated against the
// paper's Table III baseline — GTO scheduling, line-grain L1, crossbar —
// and has no structural term for a different scheduler, fill granularity,
// routing discipline or issue width, so a variant estimate is a baseline
// extrapolation of unknown quality. The penalty lands the confidence below
// the auto-tier escalation gate (uarch.ConfidencePenalty <
// DefaultConfidenceThreshold), so auto-tier predict requests on variants
// always escalate to the cycle simulator rather than serve an uncalibrated
// analytic answer.
func applyUarchPenalty(e Estimate, v uarch.Variant) Estimate {
	if !v.IsDefault() {
		e.Confidence *= uarch.ConfidencePenalty
	}
	return e
}

// MPKICurve returns the analytic LLC miss-rate estimate at each given
// configuration, smallest LLC first — the analytic stand-in for the
// functional-simulation sweep of internal/mrc.
func MPKICurve(w trace.Workload, cfgs []config.SystemConfig) ([]float64, error) {
	out := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		e, err := EstimateCell(cfg, w)
		if err != nil {
			return nil, err
		}
		out[i] = e.LLCMPKI
	}
	return out, nil
}

// finish converts a solved model into the public Estimate.
func finish(sol solution, f *features) Estimate {
	return Estimate{
		IPC:            sol.ipc,
		FMem:           sol.fmem,
		Cycles:         sol.cycles,
		Instructions:   sol.instrTotal,
		LLCMPKI:        sol.llcMPKI,
		L1MissRate:     sol.l1MissRate,
		RemoteFraction: sol.remoteFrac,
		Confidence:     confidence(f, sol),
	}
}
