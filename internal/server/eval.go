package server

// The built-in evaluator: turns a validated canonical request into its
// canonical JSON response body. Every simulation, monolithic or MCM, runs
// under the caller's context on one of the intake's Workers slots.
// Determinism note: response bodies are produced by json.Marshal over
// structs (fixed field order), simulation statistics are bit-identical
// across worker counts and shard counts, and the prediction pipeline is
// pure arithmetic — so one canonical request always yields one byte
// string, which the store replays verbatim.

import (
	"context"
	"fmt"
	"sync"

	"gpuscale"
	"gpuscale/internal/core"
)

// evaluate dispatches one canonical request to its op's evaluator.
func (s *Server) evaluate(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	switch req.Op {
	case gpuscale.OpSimulate:
		return s.evalSimulate(ctx, req, hash)
	case gpuscale.OpPredict:
		return s.evalPredict(ctx, req, hash)
	case gpuscale.OpMRC:
		return s.evalMRC(ctx, req, hash)
	default:
		return nil, fmt.Errorf("server: unknown op %q", req.Op)
	}
}

// EvalLocal evaluates one request in-process without an HTTP server — the
// CLIs' "no daemon configured" path, sharing the daemon's evaluator (and
// therefore its response format) exactly. workers bounds the simulation
// pool; <= 0 means all CPUs. mcmShards sets the MCM shard count.
func EvalLocal(ctx context.Context, req gpuscale.Request, workers, mcmShards int) ([]byte, string, error) {
	if req.Op == "" {
		return nil, "", fmt.Errorf("server: request has no op")
	}
	_, hash, err := gpuscale.Canonicalize(req)
	if err != nil {
		return nil, "", err
	}
	// Latency tiers work without a daemon too: tier=analytic always
	// answers analytically; tier=auto does unless confidence falls below
	// the default threshold, in which case it falls through to the cycle
	// pipeline exactly like the daemon's escalation path. (Validation
	// admits these tiers on predict requests only.)
	switch req.Options.Tier {
	case gpuscale.TierAnalytic, gpuscale.TierAuto:
		ap, err := gpuscale.PredictAnalytic(req)
		if err != nil {
			return nil, "", err
		}
		if req.Options.Tier == gpuscale.TierAnalytic || ap.Confidence >= defaultConfidenceThreshold {
			body, err := predictBody(req, hash, ap.Input, gpuscale.TierAnalytic, ap.Confidence)
			return body, hash, err
		}
	}
	s, err := New(Options{Workers: workers, MCMShards: mcmShards})
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	body, err := s.evaluate(ctx, req, hash)
	return body, hash, err
}

// evalSimulate runs one timing simulation.
func (s *Server) evalSimulate(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	tgt, err := req.ResolveSimulation()
	if err != nil {
		return nil, err
	}
	rs, err := s.simulate(ctx, tgt)
	if err != nil {
		return nil, err
	}
	resp := SimulateResponse{
		RequestHash: hash,
		Op:          req.Op,
		Workload:    tgt.Workload.Name(),
	}
	if tgt.MCM != nil {
		resp.Config, resp.MCMStats = tgt.MCM.Name, &rs[0].MCM
	} else {
		resp.Config, resp.Stats = tgt.System.Name, &rs[0].Stats
	}
	return marshalResponse(resp)
}

// evalMRC collects a miss-rate curve across the standard configurations.
func (s *Server) evalMRC(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	w, err := req.Workload.Resolve(0)
	if err != nil {
		return nil, err
	}
	curve, err := s.startCurve(req.Workload).wait(ctx)
	if err != nil {
		return nil, err
	}
	return marshalResponse(MRCResponse{
		RequestHash: hash,
		Op:          req.Op,
		Workload:    w.Name(),
		Points:      curve.Points,
	})
}

// evalPredict runs the scale-model pipeline: simulate the two scale
// models of req.ScaleModels concurrently, collect the miss-rate curve for
// strong scaling, whose sweep starts before the scale models are submitted
// and runs beside them, and predict the target sizes the paper never
// simulates.
func (s *Server) evalPredict(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	sizes, models, err := req.ScaleModels()
	if err != nil {
		return nil, err
	}
	var sweep *curveFlight
	if !req.Workload.Weak {
		sweep = s.startCurve(req.Workload)
	}
	// Stats carries IPC and f_mem for MCM runs too: MCMStats copies them.
	rs, err := s.simulate(ctx, models[:]...)
	if err != nil {
		return nil, err
	}
	in := gpuscale.PredictionInput{
		Sizes:    sizes,
		SmallIPC: rs[0].Stats.IPC,
		LargeIPC: rs[1].Stats.IPC,
		Mode:     gpuscale.WeakScaling,
	}
	if sweep != nil {
		curve, err := sweep.wait(ctx)
		if err != nil {
			return nil, err
		}
		in.Mode = gpuscale.StrongScaling
		in.MPKI = curve.MPKIs()
		in.FMemLarge = rs[1].Stats.FMem
	}
	return predictBody(req, hash, in, "", 0)
}

// predictBody renders one predict response from its prediction input: the
// scale models, Eq. 1's correction factor, the miss-rate curve (strong
// scaling), and every target size's prediction beside the four baseline
// extrapolations (core.PredictTargets). tier and confidence stay empty on
// cycle responses, whose bytes predate tiering; an analytic-tier body
// (gpuscale.PredictAnalytic's input, no simulation on the path) is just as
// deterministic and caches under AnalyticCacheKey like any other response.
func predictBody(req gpuscale.Request, hash string, in gpuscale.PredictionInput, tier string, confidence float64) ([]byte, error) {
	targets, err := core.PredictTargets(in)
	if err != nil {
		return nil, err
	}
	preds := make([]PredictionPoint, len(targets))
	for i, t := range targets {
		preds[i] = PredictionPoint{Size: t.Size, IPC: t.IPC, Region: t.Region.String(), Baselines: t.Baselines}
	}
	return marshalResponse(PredictResponse{
		RequestHash: hash,
		Op:          req.Op,
		Workload:    req.Workload.Bench,
		Mode:        in.Mode.String(),
		MCM:         req.Target.Chiplets > 0,
		ScaleModels: []ScaleModelPoint{
			{Size: in.Sizes[0], IPC: in.SmallIPC},
			{Size: in.Sizes[1], IPC: in.LargeIPC},
		},
		CorrectionFactor: gpuscale.CorrectionFactor(in.Sizes[0], in.SmallIPC, in.Sizes[1], in.LargeIPC),
		MPKI:             in.MPKI,
		Predictions:      preds,
		Tier:             tier,
		Confidence:       confidence,
	})
}

// simulate runs targets through the intake concurrently, each on one of
// its Workers slots, and returns their results in target order, or the
// first error in target order. The daemon's -mcm-shards overrides an MCM
// target's shard count (results are bit-identical either way, and
// Canonicalize already stripped shards from the cache key).
func (s *Server) simulate(ctx context.Context, targets ...gpuscale.SimTarget) ([]gpuscale.JobResult, error) {
	s.m.simsStart.Add(uint64(len(targets)))
	results := make([]gpuscale.JobResult, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		j := gpuscale.Job{Kernels: []gpuscale.Workload{t.Workload}, MCM: t.MCM}
		for _, fn := range t.Options {
			fn(&j.Options)
		}
		if t.MCM == nil {
			j.Config = *t.System
		} else if s.opt.MCMShards > 0 {
			j.Options.Shards = s.opt.MCMShards
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.intake.Submit(ctx, j)
		}(i)
	}
	wg.Wait()
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("server: simulating %s: %w", r.Job.Label(), r.Err)
		}
	}
	return results, nil
}
