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
	writeFail  *obs.Counter // store bodies that could not be written to disk
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
	tenants map[string]int // admitted requests per tenant; absent = none

	curves engine.Memo[gpuscale.WorkloadSpec, gpuscale.Curve]  // curves.go
	sweep  func(gpuscale.WorkloadSpec) (gpuscale.Curve, error) // sweepStandard; a seam for tests

	predict   func(gpuscale.Request) (gpuscale.AnalyticPrediction, error) // gpuscale.PredictAnalytic; a seam for tests
	estimates engine.Memo[string, gpuscale.AnalyticPrediction]            // auto-tier model runs in flight, by request hash
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
		opt.ConfidenceThreshold = gpuscale.DefaultConfidenceThreshold
	}
	reg := obs.NewRegistry()
	store, err := harness.NewResultStore(opt.StoreDir, opt.MemoBytes)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opt:       opt,
		reg:       reg,
		store:     store,
		tenants:   make(map[string]int),
		sweep:     sweepStandard,
		predict:   gpuscale.PredictAnalytic,
		estimates: engine.Memo[string, gpuscale.AnalyticPrediction]{Forget: true},
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
		writeFail: reg.Counter("server/store/write_failed"),
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

// Close stops the intake and waits for running simulations and miss-rate
// sweeps. In-flight HTTP handlers should be drained first
// (http.Server.Shutdown).
func (s *Server) Close() {
	s.intake.Close()
	s.curves.Wait()
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
		s.m.writeFail.Store(s.store.WriteFailed())
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
	body, tier, src, err := s.answer(r.Context(), req, hash)
	s.m.latencyMS.Observe(sinceMS(start))
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The client is gone; nothing useful can be written.
		s.m.cancelled.Inc()
	case err != nil:
		s.m.errors.Inc()
		writeError(w, http.StatusInternalServerError, err)
	default:
		s.serve(w, hash, tier, src, body, start)
	}
}

// answer is the one tier policy (docs/ANALYTIC.md), shared by the handler
// and EvalLocal: it returns req's body, the latency tier that produced it
// and the store level that served it. Validation admits the analytic and
// auto tiers on predict requests only.
//
//   - analytic asks the store first and runs the model only when no body
//     is stored under the request's analytic key;
//   - auto serves a settled cycle body if there is one; otherwise it takes
//     the confidence from the stored analytic body, running the model
//     (through the estimates memo) only when there is none. Below the
//     threshold it escalates to the cycle tier, whose body is
//     byte-identical to a direct cycle request's;
//   - cycle evaluates through the store.
func (s *Server) answer(ctx context.Context, req gpuscale.Request, hash string) ([]byte, string, harness.StoreSource, error) {
	switch req.Options.Tier {
	case gpuscale.TierAnalytic:
		return s.analytic(ctx, req, hash, func() (gpuscale.AnalyticPrediction, error) { return s.predict(req) })
	case gpuscale.TierAuto:
		// A settled cycle response outranks any estimate, and serving it
		// costs no more than the analytic path would.
		if body, src, ok := s.store.Lookup(hash); ok {
			return body, gpuscale.TierCycle, src, nil
		}
		// Canonicalize strips the tier, so a stored estimate is the body
		// the model would produce now, and it records the confidence.
		if body, src, ok := s.store.Lookup(gpuscale.AnalyticCacheKey(hash)); ok {
			var stored struct {
				Confidence float64 `json:"confidence"`
			}
			if json.Unmarshal(body, &stored) == nil && stored.Confidence >= s.opt.ConfidenceThreshold {
				return body, gpuscale.TierAnalytic, src, nil
			}
		} else {
			ap, err := s.estimates.Do(ctx, hash, func() (gpuscale.AnalyticPrediction, error) { return s.predict(req) })
			if err != nil {
				return nil, "", "", err
			}
			if ap.Confidence >= s.opt.ConfidenceThreshold {
				return s.analytic(ctx, req, hash, func() (gpuscale.AnalyticPrediction, error) { return ap, nil })
			}
		}
		s.m.escalated.Inc()
	}
	body, src, err := s.store.Do(ctx, hash, func() ([]byte, error) { return s.eval(ctx, req, hash) })
	return body, gpuscale.TierCycle, src, err
}

// analytic serves req from its analytic key: the stored body, or the one
// rendered from estimate, which runs only when nothing is stored.
func (s *Server) analytic(ctx context.Context, req gpuscale.Request, hash string, estimate func() (gpuscale.AnalyticPrediction, error)) ([]byte, string, harness.StoreSource, error) {
	body, src, err := s.store.Do(ctx, gpuscale.AnalyticCacheKey(hash), func() ([]byte, error) {
		ap, err := estimate()
		if err != nil {
			return nil, err
		}
		return predictBody(req, hash, ap.Input, gpuscale.TierAnalytic, ap.Confidence)
	})
	return body, gpuscale.TierAnalytic, src, err
}

// sinceMS is the host time since start in fractional milliseconds, the
// unit of server/latency_ms: a cache hit takes well under a millisecond and
// must still move the histogram's sum.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// serve emits a successful response with the standard headers — X-Cache
// names the store level that served the body, X-Tier the latency tier that
// produced it — and counts it.
func (s *Server) serve(w http.ResponseWriter, hash, tier string, src harness.StoreSource, body []byte, start time.Time) {
	if tier == gpuscale.TierAnalytic {
		s.m.analyticUS.Observe(float64(time.Since(start).Microseconds()))
	}
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
	s.m.tierServed[tier].Inc()
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
