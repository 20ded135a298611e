package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"gpuscale"
	"gpuscale/internal/engine"
	"gpuscale/internal/harness"
	"gpuscale/internal/obs"
)

// maxRequestBody bounds /v1 request bodies; canonical requests are tiny.
const maxRequestBody = 1 << 20

// Evaluator computes the canonical response body for one request. It is a
// seam for tests (inject a blocking or instant evaluator); production
// servers use the built-in one (eval.go). The returned bytes are stored
// verbatim and replayed byte-identically on cache hits, so an evaluator
// must be deterministic: same canonical request → same bytes.
type Evaluator func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error)

// Options configures a Server.
type Options struct {
	// StoreDir is the disk level of the response cache; "" serves from
	// memory only (restarts re-simulate).
	StoreDir string
	// Workers bounds concurrently running simulations, monolithic and MCM
	// alike; <= 0 means all CPUs.
	Workers int
	// TenantCapacity bounds each tenant's concurrently admitted requests
	// (in queue + in flight); beyond it the server answers 429 with
	// Retry-After. <= 0 means 64.
	TenantCapacity int
	// MCMShards is the shard count applied to every MCM simulation the
	// server runs (results are bit-identical at every setting).
	MCMShards int
	// MemoBytes caps the in-memory level of the response cache in bytes
	// (strict LRU); <= 0 means 64 MiB. Evicted entries reload from
	// StoreDir when configured.
	MemoBytes int64
	// ConfidenceThreshold gates auto-tier escalation: an auto predict
	// request whose analytic confidence is below it escalates to the cycle
	// simulator. <= 0 means 0.5.
	ConfidenceThreshold float64
	// Registry receives the server's metrics (and is exported at
	// /metrics); nil creates a private one.
	Registry *obs.Registry
	// Eval overrides the built-in evaluator (tests only).
	Eval Evaluator
}

// metrics is the server's instrumentation, all registered under "server/".
type metrics struct {
	requests   *obs.Counter // per op, see Server.requestCounter
	hitsMem    *obs.Counter
	hitsDisk   *obs.Counter
	coalesced  *obs.Counter
	misses     *obs.Counter
	rejected   *obs.Counter
	cancelled  *obs.Counter
	errors     *obs.Counter
	simsStart  *obs.Counter
	corrupt    *obs.Counter // store bodies on disk rejected as not JSON
	latencyMS  *obs.Histogram
	reqCounter map[string]*obs.Counter

	// Latency-tier instrumentation (docs/ANALYTIC.md): which tier served
	// each response, auto-tier escalations, and the analytic fast path's
	// latency in host microseconds (its budget is < 1 ms).
	tierServed map[string]*obs.Counter
	escalated  *obs.Counter
	analyticUS *obs.Histogram

	// The curve memo (curves.go): sweeps run, and requests that found their
	// workload's curve already there or on its way.
	curveSweeps   *obs.Counter
	curveMemoHits *obs.Counter
}

// latencyBoundsMS buckets request latency in host milliseconds: cache hits
// land in the low buckets, fresh simulations in the high ones.
var latencyBoundsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 30000}

// analyticBoundsUS buckets the analytic fast path in host microseconds;
// the tier's contract is to answer well under a millisecond.
var analyticBoundsUS = []float64{50, 100, 250, 500, 1000, 2500, 10000}

// defaultConfidenceThreshold gates auto-tier escalation when the operator
// sets none.
const defaultConfidenceThreshold = gpuscale.DefaultConfidenceThreshold

// Server is the gpuscaled HTTP service. Create with New, mount Handler on
// an http.Server, and Close when done.
type Server struct {
	opt    Options
	reg    *obs.Registry
	store  *harness.ResultStore
	intake *engine.Intake
	eval   Evaluator
	m      metrics

	mu      sync.Mutex
	tenants map[string]int                         // admitted requests per tenant; absent = none
	curves  map[gpuscale.WorkloadSpec]*curveFlight // curves.go

	sweep    func(gpuscale.WorkloadSpec) (gpuscale.Curve, error) // sweepStandard; a seam for tests
	sweeping sync.WaitGroup                                      // running sweep goroutines

	predict func(gpuscale.Request) (gpuscale.AnalyticPrediction, error) // gpuscale.PredictAnalytic; a seam for tests
}

// New builds a Server, creating the store directory if needed.
func New(opt Options) (*Server, error) {
	if opt.TenantCapacity <= 0 {
		opt.TenantCapacity = 64
	}
	if opt.MemoBytes <= 0 {
		opt.MemoBytes = 64 << 20
	}
	if opt.ConfidenceThreshold <= 0 {
		opt.ConfidenceThreshold = defaultConfidenceThreshold
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	store, err := harness.NewResultStore(opt.StoreDir, opt.MemoBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:     opt,
		reg:     reg,
		store:   store,
		tenants: make(map[string]int),
		curves:  make(map[gpuscale.WorkloadSpec]*curveFlight),
		sweep:   sweepStandard,
		predict: gpuscale.PredictAnalytic,
	}
	s.m = metrics{
		hitsMem:   reg.Counter("server/cache/hits_memory"),
		hitsDisk:  reg.Counter("server/cache/hits_disk"),
		coalesced: reg.Counter("server/cache/coalesced"),
		misses:    reg.Counter("server/cache/misses"),
		rejected:  reg.Counter("server/backpressure/rejected"),
		cancelled: reg.Counter("server/cancelled"),
		errors:    reg.Counter("server/errors"),
		simsStart: reg.Counter("server/sims/started"),
		corrupt:   reg.Counter("server/store/corrupt"),
		latencyMS: reg.Histogram("server/latency_ms", latencyBoundsMS),
		reqCounter: map[string]*obs.Counter{
			gpuscale.OpSimulate: reg.Counter("server/requests/simulate"),
			gpuscale.OpPredict:  reg.Counter("server/requests/predict"),
			gpuscale.OpMRC:      reg.Counter("server/requests/mrc"),
		},
		tierServed: map[string]*obs.Counter{
			gpuscale.TierAnalytic: reg.Counter("server/tier/analytic"),
			gpuscale.TierCycle:    reg.Counter("server/tier/cycle"),
		},
		escalated:  reg.Counter("server/tier/escalated"),
		analyticUS: reg.Histogram("server/tier/analytic_latency_us", analyticBoundsUS),

		curveSweeps:   reg.Counter("server/curve/sweeps"),
		curveMemoHits: reg.Counter("server/curve/memo_hits"),
	}
	s.intake = engine.NewIntake(engine.IntakeOptions{Workers: opt.Workers})
	s.eval = opt.Eval
	if s.eval == nil {
		s.eval = s.evaluate
	}
	return s, nil
}

// Registry returns the server's metrics registry (the one /metrics serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close stops the intake and waits for running simulations and miss-rate
// sweeps. In-flight HTTP handlers should be drained first
// (http.Server.Shutdown).
func (s *Server) Close() {
	s.intake.Close()
	s.sweeping.Wait()
}

// Handler returns the service's HTTP routes:
//
//	GET  /healthz     liveness probe
//	GET  /metrics     Prometheus text exposition of the metrics registry
//	POST /v1/simulate one timing simulation
//	POST /v1/predict  the scale-model prediction pipeline
//	POST /v1/mrc      a miss-rate curve
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// Prometheus text exposition; the renderer lives in obs, which
		// deliberately does not import net/http (see obs/prom.go).
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.m.corrupt.Store(s.store.Corrupt())
		obs.WritePrometheus(w, s.reg.Snapshot())
	})
	for _, op := range []string{gpuscale.OpSimulate, gpuscale.OpPredict, gpuscale.OpMRC} {
		op := op
		mux.HandleFunc("/v1/"+op, func(w http.ResponseWriter, r *http.Request) {
			s.handle(op, w, r)
		})
	}
	return mux
}

// handle serves one /v1 operation.
func (s *Server) handle(op string, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST a JSON request to this endpoint"))
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(data) > maxRequestBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxRequestBody))
		return
	}
	req, err := gpuscale.ParseRequest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The endpoint path is authoritative for the op; a body op may only
	// confirm it. This keeps one request schema across all endpoints
	// without letting a mismatched body run a different operation than
	// the URL says.
	if req.Op == "" {
		req.Op = op
	} else if req.Op != op {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request op %q does not match endpoint /v1/%s", req.Op, op))
		return
	}
	_, hash, err := gpuscale.Canonicalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.m.reqCounter[op].Inc()

	release, ok := s.acquire(tenantOf(r))
	if !ok {
		s.m.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, fmt.Errorf("tenant queue full (capacity %d); retry later", s.opt.TenantCapacity))
		return
	}
	defer release()

	start := time.Now()
	if req.Op == gpuscale.OpPredict &&
		(req.Options.Tier == gpuscale.TierAnalytic || req.Options.Tier == gpuscale.TierAuto) {
		if s.servePredictFast(w, r, req, hash, start) {
			return
		}
		// The analytic model was not confident enough for this auto
		// request: escalate to the cycle pipeline below, whose response is
		// byte-identical to a direct cycle-tier request.
		s.m.escalated.Inc()
	}
	body, src, err := s.store.Do(r.Context(), hash, func() ([]byte, error) {
		return s.eval(r.Context(), req, hash)
	})
	s.m.latencyMS.Observe(sinceMS(start))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone; nothing useful can be written.
			s.m.cancelled.Inc()
			return
		}
		s.m.errors.Inc()
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.countSource(src)
	s.m.tierServed[gpuscale.TierCycle].Inc()
	writeBody(w, hash, gpuscale.TierCycle, src, body)
}

// servePredictFast is the analytic latency tier (docs/ANALYTIC.md): answer
// a predict request in microseconds from the analytical model, with no
// simulation anywhere on the path. A tier=analytic request asks the store
// first and runs the model only when no body is stored under its analytic
// key; tier=auto serves a settled cycle body if there is one, and
// otherwise runs the model for its confidence before the analytic lookup.
// It reports whether the request was fully served; false means an
// auto-tier request whose analytic confidence fell below the escalation
// threshold — the caller then runs the cycle pipeline.
func (s *Server) servePredictFast(w http.ResponseWriter, r *http.Request, req gpuscale.Request, hash string, start time.Time) bool {
	compute := func() ([]byte, error) {
		ap, err := s.predict(req)
		if err != nil {
			return nil, err
		}
		return predictBody(req, hash, ap.Input, gpuscale.TierAnalytic, ap.Confidence)
	}
	if req.Options.Tier == gpuscale.TierAuto {
		// A settled cycle response outranks any estimate, and serving it
		// costs no more than the analytic path would.
		if body, src, ok := s.store.Lookup(hash); ok {
			s.m.latencyMS.Observe(sinceMS(start))
			s.countSource(src)
			s.m.tierServed[gpuscale.TierCycle].Inc()
			writeBody(w, hash, gpuscale.TierCycle, src, body)
			return true
		}
		ap, err := s.predict(req)
		if err != nil {
			s.m.errors.Inc()
			writeError(w, http.StatusInternalServerError, err)
			return true
		}
		if ap.Confidence < s.opt.ConfidenceThreshold {
			return false
		}
		compute = func() ([]byte, error) {
			return predictBody(req, hash, ap.Input, gpuscale.TierAnalytic, ap.Confidence)
		}
	}
	body, src, err := s.store.Do(r.Context(), gpuscale.AnalyticCacheKey(hash), compute)
	if err != nil {
		s.m.errors.Inc()
		writeError(w, http.StatusInternalServerError, err)
		return true
	}
	s.m.analyticUS.Observe(float64(time.Since(start).Microseconds()))
	s.m.latencyMS.Observe(sinceMS(start))
	s.countSource(src)
	s.m.tierServed[gpuscale.TierAnalytic].Inc()
	writeBody(w, hash, gpuscale.TierAnalytic, src, body)
	return true
}

// sinceMS is the host time since start in fractional milliseconds, the
// unit of server/latency_ms: a cache hit takes well under a millisecond and
// must still move the histogram's sum.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// countSource bumps the cache counter matching a store source.
func (s *Server) countSource(src harness.StoreSource) {
	switch src {
	case harness.StoreMemory:
		s.m.hitsMem.Inc()
	case harness.StoreDisk:
		s.m.hitsDisk.Inc()
	case harness.StoreCoalesced:
		s.m.coalesced.Inc()
	default:
		s.m.misses.Inc()
	}
}

// writeBody emits a successful response with the standard headers; X-Tier
// says which latency tier produced the body.
func writeBody(w http.ResponseWriter, hash, tier string, src harness.StoreSource, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-Hash", hash)
	w.Header().Set("X-Cache", string(src))
	w.Header().Set("X-Tier", tier)
	w.Write(body)
}

// acquire admits one request for tenant, returning its release func, or
// (nil, false) when the tenant already has TenantCapacity requests
// admitted. A tenant has an entry only while it has requests admitted, so
// the table is bounded by the requests in flight, whatever X-Tenant values
// clients send.
func (s *Server) acquire(tenant string) (func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[tenant] >= s.opt.TenantCapacity {
		return nil, false
	}
	s.tenants[tenant]++
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.tenants[tenant]--; s.tenants[tenant] == 0 {
			delete(s.tenants, tenant)
		}
	}, true
}

// tenantOf extracts the request's tenant (X-Tenant header, "default" when
// absent).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// writeError emits the JSON error body every non-200 response uses.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}
