package server

// The curve memo. A miss-rate curve is a function of the workload alone —
// the sweep replays caches, so neither the target size nor the uarch variant
// reaches it — while response bodies are cached per request. Without the
// memo, a predict for ht, the same predict under another variant and
// /v1/mrc for ht sweep ht three times. The key is the request's
// WorkloadSpec, which names one row of the fixed benchmark tables: the memo
// cannot outgrow them, so it has no eviction and no size option. It sits
// under the response cache, never beside it: a request served from the memo
// is still "computed" in X-Cache and in the cache counters.

import (
	"gpuscale"
	"gpuscale/internal/engine"
)

// startCurve returns the call holding spec's curve, starting the sweep on
// its own goroutine if no request has asked for this workload before (or
// the last sweep failed or panicked). It never blocks, so a predict can
// start the sweep before it submits its scale models and collect it after
// them. Sweep goroutines are not bounded by Options.Workers; Close waits
// for them.
func (s *Server) startCurve(spec gpuscale.WorkloadSpec) *engine.Call[gpuscale.Curve] {
	c, started := s.curves.Go(spec, func() (gpuscale.Curve, error) { return s.sweep(spec) })
	if started {
		s.m.curveSweeps.Inc()
	} else {
		s.m.curveMemoHits.Inc()
	}
	return c
}

// sweepStandard is the sweep behind the memo: spec's curve over the five
// standard configurations.
func sweepStandard(spec gpuscale.WorkloadSpec) (gpuscale.Curve, error) {
	w, err := spec.Resolve(0)
	if err != nil {
		return gpuscale.Curve{}, err
	}
	return gpuscale.MissRateCurve(w, gpuscale.StandardConfigs())
}
