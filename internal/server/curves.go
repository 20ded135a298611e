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
	"context"
	"fmt"

	"gpuscale"
)

// curveFlight is one sweep, running or finished. curve and err are set
// before done is closed and never written again.
type curveFlight struct {
	done  chan struct{}
	curve gpuscale.Curve
	err   error
}

// wait blocks until the sweep has finished or ctx is done.
func (f *curveFlight) wait(ctx context.Context) (gpuscale.Curve, error) {
	select {
	case <-f.done:
		return f.curve, f.err
	case <-ctx.Done():
		return gpuscale.Curve{}, ctx.Err()
	}
}

// startCurve returns the flight holding spec's curve, starting the sweep on
// its own goroutine if no request has asked for this workload before (or
// the last sweep failed). It never blocks, so a predict can start the sweep
// before it submits its scale models and collect it after them. Sweep
// goroutines are not bounded by Options.Workers; Close waits for them.
func (s *Server) startCurve(spec gpuscale.WorkloadSpec) *curveFlight {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.curves[spec]; ok {
		s.m.curveMemoHits.Inc()
		return f
	}
	f := &curveFlight{done: make(chan struct{})}
	s.curves[spec] = f
	s.m.curveSweeps.Inc()
	s.sweeping.Add(1)
	go func() {
		defer s.sweeping.Done()
		defer close(f.done)
		defer func() {
			// Off the handler goroutine net/http no longer turns a panic
			// into one failed request, so it becomes this flight's error.
			if p := recover(); p != nil {
				f.err = fmt.Errorf("server: miss-rate sweep of %s panicked: %v", spec.Bench, p)
			}
			if f.err != nil {
				// An error is an answer to the requests already waiting,
				// not a curve: the next request sweeps again.
				s.mu.Lock()
				delete(s.curves, spec)
				s.mu.Unlock()
			}
		}()
		f.curve, f.err = s.sweep(spec)
	}()
	return f
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
