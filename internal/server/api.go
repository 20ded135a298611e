// Package server implements the gpuscaled prediction service: an HTTP/JSON
// daemon serving the paper's scale-model predictions (and raw simulations
// and miss-rate curves) over the existing engine and facade.
//
// The service is built around one invariant: a request's canonical hash
// (gpuscale.Canonicalize) fully determines its response bytes, because
// every simulation in this repository is deterministic. That invariant is
// what the whole serving architecture leans on — responses are cached as
// opaque byte strings in a two-level harness.ResultStore (in-memory
// single-flight memo in front of a disk directory, so restarts do not
// re-simulate), concurrent identical requests coalesce onto one
// computation, and a replayed cache entry is byte-identical to a fresh
// evaluation.
//
// Request flow: decode (strict) → canonicalise → per-tenant admission (a
// bounded semaphore per X-Tenant; full queue → 429 + Retry-After) → store
// lookup → on miss, evaluate. Every simulation the evaluator starts,
// monolithic or MCM, runs on its handler's goroutine once it holds one of
// the engine.Intake's -parallel slots. The client's request context is
// threaded into the run loops, so a disconnected client aborts its
// in-flight simulation within a few thousand simulated cycles.
package server

import (
	"encoding/json"

	"gpuscale"
)

// marshalResponse produces the canonical body bytes for a response struct.
// encoding/json is deterministic here: struct fields marshal in definition
// order and map keys sort, so the same response value always produces the
// same bytes — the property the byte-replay cache relies on.
func marshalResponse(v any) ([]byte, error) {
	return json.Marshal(v)
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// SimulateResponse is the /v1/simulate response body.
type SimulateResponse struct {
	// RequestHash is the canonical request hash (also in X-Request-Hash).
	RequestHash string `json:"request_hash"`
	// Op echoes the operation ("simulate").
	Op string `json:"op"`
	// Config names the simulated configuration (e.g. "gpu-16sm", "mcm-4c").
	Config string `json:"config"`
	// Workload names the instantiated workload.
	Workload string `json:"workload"`
	// Stats is the monolithic-GPU result (nil for MCM requests).
	Stats *gpuscale.SimStats `json:"stats,omitempty"`
	// MCMStats is the multi-chip-module result (nil for monolithic).
	MCMStats *gpuscale.MCMStats `json:"mcm_stats,omitempty"`
}

// MRCResponse is the /v1/mrc response body.
type MRCResponse struct {
	RequestHash string `json:"request_hash"`
	Op          string `json:"op"`
	Workload    string `json:"workload"`
	// Points is the miss-rate curve across the five standard
	// configurations, smallest LLC first.
	Points []gpuscale.CurvePoint `json:"points"`
}

// ScaleModelPoint is one simulated scale model in a PredictResponse.
type ScaleModelPoint struct {
	// Size is the system size (SMs, or chiplets for MCM predictions).
	Size float64 `json:"size"`
	// IPC is the measured scale-model IPC.
	IPC float64 `json:"ipc"`
}

// PredictionPoint is one predicted target size in a PredictResponse.
type PredictionPoint struct {
	// Size is the predicted system size (SMs, or chiplets for MCM).
	Size float64 `json:"size"`
	// IPC is the scale-model prediction (the paper's contribution).
	IPC float64 `json:"ipc"`
	// Region classifies the prediction against the miss-rate curve
	// ("pre-cliff", "cliff", "post-cliff").
	Region string `json:"region"`
	// Baselines maps each baseline extrapolation (logarithmic,
	// proportional, linear, power-law) to its predicted IPC.
	Baselines map[string]float64 `json:"baselines"`
}

// PredictResponse is the /v1/predict response body: the full scale-model
// pipeline — simulate the two small scale models, then predict every
// standard target size without simulating any of them.
type PredictResponse struct {
	RequestHash string `json:"request_hash"`
	Op          string `json:"op"`
	Workload    string `json:"workload"`
	// Mode is "strong" or "weak".
	Mode string `json:"mode"`
	// MCM is true for the multi-chip-module case study (sizes are chiplet
	// counts).
	MCM bool `json:"mcm,omitempty"`
	// ScaleModels are the simulated scale models, smallest first.
	ScaleModels []ScaleModelPoint `json:"scale_models"`
	// CorrectionFactor is Eq. 1's C: measured scale-model scaling over
	// ideal proportional scaling.
	CorrectionFactor float64 `json:"correction_factor"`
	// MPKI is the miss-rate curve sampled at each standard size (strong
	// scaling only).
	MPKI []float64 `json:"mpki,omitempty"`
	// Predictions are the predicted target sizes, smallest first.
	Predictions []PredictionPoint `json:"predictions"`
	// Tier is "analytic" when this body came from the analytic tier; empty
	// (omitted) on cycle responses, whose bytes must stay identical to
	// builds that predate tiering.
	Tier string `json:"tier,omitempty"`
	// Confidence is the analytic model's confidence in [0, 1]; zero
	// (omitted) on cycle responses.
	Confidence float64 `json:"confidence,omitempty"`
}
