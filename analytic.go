package gpuscale

// The analytic latency tier of the facade: microsecond-scale predictions
// from internal/analytic, either per simulation cell (AnalyzeCell and
// friends — the analytic mirror of SimulateContext) or as the full
// scale-model prediction ladder (PredictAnalytic — the analytic mirror of
// the /v1/predict pipeline). No simulation runs on any of these paths;
// every result carries a confidence score the serving tier uses to decide
// whether to escalate to the cycle simulator (docs/ANALYTIC.md).

import (
	"gpuscale/internal/analytic"
)

// AnalyticEstimate is one microsecond-scale analytical prediction of a
// simulation cell: estimated IPC, f_mem, LLC MPKI and a confidence score.
type AnalyticEstimate = analytic.Estimate

// AnalyzeCell analytically predicts one monolithic simulation cell — the
// microsecond-scale stand-in for SimulateContext.
func AnalyzeCell(cfg SystemConfig, w Workload) (AnalyticEstimate, error) {
	return analytic.EstimateCell(cfg, w)
}

// AnalyzeMCMCell analytically predicts one multi-chip-module cell — the
// stand-in for SimulateMCMContext.
func AnalyzeMCMCell(cfg ChipletConfig, w Workload) (AnalyticEstimate, error) {
	return analytic.EstimateMCM(cfg, w)
}

// AnalyzeSequence analytically predicts a back-to-back kernel sequence —
// the stand-in for SimulateSequenceContext.
func AnalyzeSequence(cfg SystemConfig, ws []Workload) (AnalyticEstimate, error) {
	return analytic.EstimateSequence(cfg, ws)
}

// AnalyticPrediction is the analytic tier's version of the scale-model
// prediction pipeline: the same PredictionInput the cycle tier feeds to
// Predict, produced from analytical scale-model estimates instead of
// simulations, plus the estimates themselves and the overall confidence
// (the minimum over every cell the ladder consulted).
type AnalyticPrediction struct {
	// Input is ready for Predict — sizes, scale-model IPCs, the analytic
	// MPKI curve (strong scaling) and f_mem at the large model.
	Input PredictionInput
	// Small and Large are the analytic scale-model estimates.
	Small, Large AnalyticEstimate
	// MCM reports the multi-chip-module case study (sizes are chiplets).
	MCM bool
	// Confidence is the minimum confidence across the consulted cells.
	Confidence float64
}

// PredictAnalytic runs the full scale-model prediction ladder analytically
// for a predict-op request: estimate the two scale models of
// Request.ScaleModels, estimate the miss-rate curve (strong scaling), and
// assemble the PredictionInput that Predict extrapolates to the target
// sizes — all without simulating.
func PredictAnalytic(req Request) (AnalyticPrediction, error) {
	if req.Op == "" {
		req.Op = OpPredict
	}
	sizes, cells, err := req.scaleModels()
	if err != nil {
		return AnalyticPrediction{}, err
	}
	var ests [2]AnalyticEstimate
	for i, c := range cells {
		// The variant sits in the configurations, so the estimates carry
		// its confidence discount and auto-tier requests escalate
		// (docs/UARCH.md).
		if c.mcm.NumChiplets > 0 {
			ests[i], err = analytic.EstimateMCM(c.mcm, c.w)
		} else {
			ests[i], err = analytic.EstimateCell(c.sys, c.w)
		}
		if err != nil {
			return AnalyticPrediction{}, err
		}
	}
	out := AnalyticPrediction{
		Input: PredictionInput{
			Sizes:    sizes,
			SmallIPC: ests[0].IPC,
			LargeIPC: ests[1].IPC,
			Mode:     WeakScaling,
		},
		Small:      ests[0],
		Large:      ests[1],
		MCM:        req.Target.Chiplets > 0,
		Confidence: min(ests[0].Confidence, ests[1].Confidence),
	}
	if req.Workload.Weak {
		return out, nil
	}
	mpki, err := analytic.MPKICurve(cells[1].w, StandardConfigs())
	if err != nil {
		return AnalyticPrediction{}, err
	}
	out.Input.Mode = StrongScaling
	out.Input.MPKI = mpki
	// FMemLarge feeds Eq. 3's 1/(1-f_mem·r) term and must stay in [0, 1).
	out.Input.FMemLarge = min(ests[1].FMem, 0.999)
	return out, nil
}
