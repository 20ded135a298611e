package server

// The built-in evaluator: turns a validated canonical request into its
// canonical JSON response body. Simulations run under the caller's
// context; monolithic ones go through the intake (coalescing + bounded
// pool), MCM ones call the facade directly. Determinism note: response
// bodies are produced by json.Marshal over structs (fixed field order),
// simulation statistics are bit-identical across worker counts and shard
// counts, and the prediction pipeline is pure arithmetic — so one
// canonical request always yields one byte string, which the store
// replays verbatim.

import (
	"context"
	"fmt"

	"gpuscale"
	"gpuscale/internal/config"
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
	// pipeline exactly like the daemon's escalation path.
	if req.Op == gpuscale.OpPredict {
		switch req.Options.Tier {
		case gpuscale.TierAnalytic:
			body, err := evalPredictAnalytic(req, hash)
			return body, hash, err
		case gpuscale.TierAuto:
			ap, err := gpuscale.PredictAnalytic(req)
			if err != nil {
				return nil, "", err
			}
			if ap.Confidence >= defaultConfidenceThreshold {
				body, err := marshalAnalytic(ap, req, hash)
				return body, hash, err
			}
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
	resp := SimulateResponse{
		RequestHash: hash,
		Op:          req.Op,
		Workload:    tgt.Workload.Name(),
	}
	s.m.simsStart.Inc()
	if tgt.MCM != nil {
		resp.Config = tgt.MCM.Name
		opts := tgt.Options
		if s.opt.MCMShards > 0 {
			// Server shard policy overrides the request's (results are
			// bit-identical either way; Canonicalize already stripped
			// shards from the cache key).
			opts = append(opts, gpuscale.WithShards(s.opt.MCMShards))
		}
		st, err := gpuscale.SimulateMCMContext(ctx, *tgt.MCM, tgt.Workload, opts...)
		if err != nil {
			return nil, err
		}
		resp.MCMStats = &st
		return marshalResponse(resp)
	}
	resp.Config = tgt.System.Name
	var o gpuscale.SimOptions
	for _, fn := range tgt.Options {
		fn(&o)
	}
	r := s.intake.Submit(ctx, gpuscale.Job{
		Config:  *tgt.System,
		Kernels: []gpuscale.Workload{tgt.Workload},
		Options: o,
	})
	if r.Err != nil {
		return nil, r.Err
	}
	resp.Stats = &r.Stats
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
// models (concurrently, so the intake can batch them), collect the
// miss-rate curve for strong scaling — its sweep starts before the scale
// models are submitted and runs beside them — and predict the target sizes
// the paper never simulates.
func (s *Server) evalPredict(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	if req.Target.Chiplets > 0 {
		return s.evalPredictMCM(ctx, req, hash)
	}

	sizes := config.StandardSizes // {8, 16, 32, 64, 128}; first two are the scale models
	base := gpuscale.Baseline128()
	if req.Options.Uarch != nil {
		// The variant scales with the ladder: both scale models simulate the
		// requested microarchitecture, so the prediction extrapolates it too.
		base.Uarch = *req.Options.Uarch
	}
	jobs := make([]gpuscale.Job, 2)
	for i, n := range sizes[:2] {
		w, err := req.Workload.Resolve(n)
		if err != nil {
			return nil, err
		}
		jobs[i] = gpuscale.NewJob(gpuscale.MustScale(base, n), w)
	}
	var sweep *curveFlight
	if !req.Workload.Weak {
		sweep = s.startCurve(req.Workload)
	}
	s.m.simsStart.Add(uint64(len(jobs)))
	models, err := s.submitAll(ctx, jobs)
	if err != nil {
		return nil, err
	}
	small, large := models[0], models[1]

	fsizes := make([]float64, len(sizes))
	for i, n := range sizes {
		fsizes[i] = float64(n)
	}
	in := gpuscale.PredictionInput{
		Sizes:    fsizes,
		SmallIPC: small.IPC,
		LargeIPC: large.IPC,
	}
	resp := PredictResponse{
		RequestHash: hash,
		Op:          req.Op,
		Workload:    req.Workload.Bench,
		ScaleModels: []ScaleModelPoint{
			{Size: fsizes[0], IPC: small.IPC},
			{Size: fsizes[1], IPC: large.IPC},
		},
		CorrectionFactor: gpuscale.CorrectionFactor(fsizes[0], small.IPC, fsizes[1], large.IPC),
	}
	if req.Workload.Weak {
		resp.Mode = "weak"
		in.Mode = gpuscale.WeakScaling
	} else {
		resp.Mode = "strong"
		in.Mode = gpuscale.StrongScaling
		curve, err := sweep.wait(ctx)
		if err != nil {
			return nil, err
		}
		in.MPKI = curve.MPKIs()
		in.FMemLarge = large.FMem
		resp.MPKI = in.MPKI
	}
	preds, err := finishPredictions(in)
	if err != nil {
		return nil, err
	}
	resp.Predictions = preds
	return marshalResponse(resp)
}

// evalPredictMCM is the multi-chip-module case study: 4- and 8-chiplet
// scale models predicting the 16-chiplet target under weak scaling.
func (s *Server) evalPredictMCM(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
	base := gpuscale.Target16Chiplet()
	if req.Options.Uarch != nil {
		// Same rule as the monolithic ladder: the MCM scale models simulate
		// the requested microarchitecture variant.
		base.Chiplet.Uarch = *req.Options.Uarch
	}
	sizes := config.ChipletStandardSizes // {4, 8, 16}; first two are the scale models
	stats := make([]gpuscale.MCMStats, 2)
	for i, n := range sizes[:2] {
		cfg, err := gpuscale.ScaleChiplets(base, n)
		if err != nil {
			return nil, err
		}
		w, err := req.Workload.Resolve(cfg.TotalSMs())
		if err != nil {
			return nil, err
		}
		s.m.simsStart.Inc()
		st, err := gpuscale.SimulateMCMContext(ctx, cfg, w, gpuscale.WithShards(s.opt.MCMShards))
		if err != nil {
			return nil, err
		}
		stats[i] = st
	}
	small, large := stats[0], stats[1]
	fsizes := make([]float64, len(sizes))
	for i, n := range sizes {
		fsizes[i] = float64(n)
	}
	preds, err := finishPredictions(gpuscale.PredictionInput{
		Sizes:    fsizes,
		SmallIPC: small.IPC,
		LargeIPC: large.IPC,
		Mode:     gpuscale.WeakScaling,
	})
	if err != nil {
		return nil, err
	}
	return marshalResponse(PredictResponse{
		RequestHash: hash,
		Op:          req.Op,
		Workload:    req.Workload.Bench,
		Mode:        "weak",
		MCM:         true,
		ScaleModels: []ScaleModelPoint{
			{Size: fsizes[0], IPC: small.IPC},
			{Size: fsizes[1], IPC: large.IPC},
		},
		CorrectionFactor: gpuscale.CorrectionFactor(fsizes[0], small.IPC, fsizes[1], large.IPC),
		Predictions:      preds,
	})
}

// evalPredictAnalytic answers a predict request from the analytic tier:
// the same response shape as evalPredict, produced by the microsecond
// model (gpuscale.PredictAnalytic) with no simulation anywhere on the
// path. The body is deterministic (pure arithmetic over static workload
// features), so it caches under AnalyticCacheKey like any other response.
func evalPredictAnalytic(req gpuscale.Request, hash string) ([]byte, error) {
	ap, err := gpuscale.PredictAnalytic(req)
	if err != nil {
		return nil, err
	}
	return marshalAnalytic(ap, req, hash)
}

// marshalAnalytic renders an already-computed analytic prediction into the
// canonical response body.
func marshalAnalytic(ap gpuscale.AnalyticPrediction, req gpuscale.Request, hash string) ([]byte, error) {
	in := ap.Input
	preds, err := finishPredictions(in)
	if err != nil {
		return nil, err
	}
	resp := PredictResponse{
		RequestHash: hash,
		Op:          req.Op,
		Workload:    req.Workload.Bench,
		MCM:         ap.MCM,
		ScaleModels: []ScaleModelPoint{
			{Size: in.Sizes[0], IPC: in.SmallIPC},
			{Size: in.Sizes[1], IPC: in.LargeIPC},
		},
		CorrectionFactor: gpuscale.CorrectionFactor(in.Sizes[0], in.SmallIPC, in.Sizes[1], in.LargeIPC),
		MPKI:             in.MPKI,
		Predictions:      preds,
		Tier:             gpuscale.TierAnalytic,
		Confidence:       ap.Confidence,
	}
	if in.Mode == gpuscale.WeakScaling {
		resp.Mode = "weak"
	} else {
		resp.Mode = "strong"
	}
	return marshalResponse(resp)
}

// submitAll submits jobs to the intake concurrently — concurrent
// submission is what lets the dispatcher coalesce them into one batch —
// and returns their stats in job order, or the first error in job order.
func (s *Server) submitAll(ctx context.Context, jobs []gpuscale.Job) ([]gpuscale.SimStats, error) {
	results := make([]gpuscale.JobResult, len(jobs))
	done := make(chan int)
	for i := range jobs {
		go func(i int) {
			results[i] = s.intake.Submit(ctx, jobs[i])
			done <- i
		}(i)
	}
	for range jobs {
		<-done
	}
	out := make([]gpuscale.SimStats, len(jobs))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("server: simulating %s: %w", jobs[i].Label(), r.Err)
		}
		out[i] = r.Stats
	}
	return out, nil
}

// finishPredictions runs the scale-model predictor plus the four baseline
// extrapolations and merges them into wire form, target sizes only.
func finishPredictions(in gpuscale.PredictionInput) ([]PredictionPoint, error) {
	preds, err := gpuscale.Predict(in)
	if err != nil {
		return nil, err
	}
	baselines, err := gpuscale.FitBaselines([]gpuscale.RegressionPoint{
		{Size: in.Sizes[0], IPC: in.SmallIPC},
		{Size: in.Sizes[1], IPC: in.LargeIPC},
	})
	if err != nil {
		return nil, err
	}
	out := make([]PredictionPoint, len(preds))
	for i, p := range preds {
		bl := make(map[string]float64, len(baselines))
		for name, m := range baselines {
			bl[name] = m.Predict(p.Size)
		}
		out[i] = PredictionPoint{
			Size:      p.Size,
			IPC:       p.IPC,
			Region:    p.Region.String(),
			Baselines: bl,
		}
	}
	return out, nil
}
