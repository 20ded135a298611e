package server

// End-to-end daemon tests over httptest: the four service behaviours the
// issue pins — cache miss → hit with byte-identical bodies, disk-store
// survival across a restart, backpressure 429 on a full tenant queue, and
// client-disconnect cancellation reaching an in-flight simulation. Tests
// that run real simulations skip under -short; the backpressure and
// protocol tests inject an Evaluator and always run.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale"
)

// post sends one /v1 request and returns status, headers and body.
func post(t *testing.T, client *http.Client, url, path, body, tenant string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// metric scrapes one counter value from /metrics.
func metric(t *testing.T, url, name string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: parsing %q: %v", name, rest, err)
			}
			return v
		}
	}
	return 0
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// TestServerPredictCacheMissThenHit is the acceptance scenario: two
// identical /v1/predict requests, the first computed, the second served
// byte-identically from memory — verified through the cache-hit counter.
func TestServerPredictCacheMissThenHit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 4})
	body := `{"op":"predict","workload":{"bench":"ht"}}`

	code, hdr, first := post(t, ts.Client(), ts.URL, "/v1/predict", body, "")
	if code != http.StatusOK {
		t.Fatalf("first predict: %d %s", code, first)
	}
	if got := hdr.Get("X-Cache"); got != "computed" {
		t.Errorf("first X-Cache = %q, want computed", got)
	}
	hash := hdr.Get("X-Request-Hash")
	if len(hash) != 64 {
		t.Errorf("X-Request-Hash = %q", hash)
	}

	code, hdr, second := post(t, ts.Client(), ts.URL, "/v1/predict", body, "")
	if code != http.StatusOK {
		t.Fatalf("second predict: %d %s", code, second)
	}
	if got := hdr.Get("X-Cache"); got != "memory" {
		t.Errorf("second X-Cache = %q, want memory", got)
	}
	if hdr.Get("X-Request-Hash") != hash {
		t.Error("request hash changed between identical requests")
	}
	if !bytes.Equal(first, second) {
		t.Error("cache hit served different bytes than the computed response")
	}

	if v := metric(t, ts.URL, "server_cache_hits_memory"); v != 1 {
		t.Errorf("server_cache_hits_memory = %d, want 1", v)
	}
	if v := metric(t, ts.URL, "server_cache_misses"); v != 1 {
		t.Errorf("server_cache_misses = %d, want 1", v)
	}
	if v := metric(t, ts.URL, "server_requests_predict"); v != 2 {
		t.Errorf("server_requests_predict = %d, want 2", v)
	}
	if v := metric(t, ts.URL, "server_sims_started"); v != 2 {
		t.Errorf("server_sims_started = %d, want 2 (the two scale models)", v)
	}
}

// TestServerDiskStoreSurvivesRestart checks the second cache level: a
// response computed by one server instance is served from disk —
// byte-identically, without re-simulating — by a fresh instance on the
// same store directory.
func TestServerDiskStoreSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	body := `{"op":"simulate","target":{"sms":8},"workload":{"bench":"ht"}}`

	s1, err := New(Options{StoreDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, _, first := post(t, ts1.Client(), ts1.URL, "/v1/simulate", body, "")
	ts1.Close()
	s1.Close()
	if code != http.StatusOK {
		t.Fatalf("simulate: %d %s", code, first)
	}

	_, ts2 := newTestServer(t, Options{StoreDir: dir, Workers: 2})
	code, hdr, second := post(t, ts2.Client(), ts2.URL, "/v1/simulate", body, "")
	if code != http.StatusOK {
		t.Fatalf("post-restart simulate: %d %s", code, second)
	}
	if got := hdr.Get("X-Cache"); got != "disk" {
		t.Errorf("post-restart X-Cache = %q, want disk", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("restarted server served different bytes")
	}
	if v := metric(t, ts2.URL, "server_sims_started"); v != 0 {
		t.Errorf("restarted server simulated %d times, want 0", v)
	}
	if v := metric(t, ts2.URL, "server_cache_hits_disk"); v != 1 {
		t.Errorf("server_cache_hits_disk = %d, want 1", v)
	}
}

// TestServerBackpressure429 fills one tenant's queue with a blocked
// request and checks that the tenant's next request bounces with 429 and
// Retry-After while another tenant is still served.
func TestServerBackpressure429(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	eval := func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
		if req.Target.SMs == 8 { // the blocking request
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []byte(fmt.Sprintf(`{"sms":%d}`, req.Target.SMs)), nil
	}
	_, ts := newTestServer(t, Options{TenantCapacity: 1, Eval: eval})

	blockBody := `{"op":"simulate","target":{"sms":8},"workload":{"bench":"dct"}}`
	otherBody := `{"op":"simulate","target":{"sms":16},"workload":{"bench":"dct"}}`

	blocked := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts.Client(), ts.URL, "/v1/simulate", blockBody, "alice")
		blocked <- code
	}()
	<-entered // alice's slot is now held inside the evaluator

	code, hdr, body := post(t, ts.Client(), ts.URL, "/v1/simulate", otherBody, "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("full tenant queue: %d %s, want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(body), "tenant queue full") {
		t.Errorf("429 body: %s", body)
	}
	if v := metric(t, ts.URL, "server_backpressure_rejected"); v != 1 {
		t.Errorf("server_backpressure_rejected = %d, want 1", v)
	}

	// Tenant isolation: bob's queue is empty, so bob is served.
	if code, _, body := post(t, ts.Client(), ts.URL, "/v1/simulate", otherBody, "bob"); code != http.StatusOK {
		t.Errorf("other tenant: %d %s, want 200", code, body)
	}

	close(release)
	if code := <-blocked; code != http.StatusOK {
		t.Errorf("released request: %d, want 200", code)
	}
	// The slot is free again: alice's next request is admitted.
	if code, _, body := post(t, ts.Client(), ts.URL, "/v1/simulate", otherBody, "alice"); code != http.StatusOK {
		t.Errorf("after release: %d %s, want 200", code, body)
	}
}

// TestServerClientDisconnectCancels checks cancellation end to end: a
// client that goes away mid-request aborts its in-flight simulation (the
// request context reaches the engine's run loop) and the server counts the
// cancellation instead of caching a partial result.
func TestServerClientDisconnectCancels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"op":"simulate","target":{"sms":16},"workload":{"bench":"ht"}}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the simulation is actually in flight, then disconnect.
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, ts.URL, "server_sims_started") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("simulation never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Error("cancelled client request reported no error")
	}

	for metric(t, ts.URL, "server_cancelled") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never recorded the cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	// Nothing was cached for the aborted request: a fresh request computes.
	code, hdr, _ := post(t, ts.Client(), ts.URL, "/v1/simulate", body, "")
	if code != http.StatusOK {
		t.Fatalf("retry after cancellation: %d", code)
	}
	if got := hdr.Get("X-Cache"); got != "computed" {
		t.Errorf("retry X-Cache = %q, want computed (aborted run must not settle)", got)
	}
}

// TestServerProtocol covers the HTTP edges with an instant evaluator:
// method and body validation, op/endpoint mismatch, and the health probe.
func TestServerProtocol(t *testing.T) {
	eval := func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
		return []byte(`{}`), nil
	}
	_, ts := newTestServer(t, Options{Eval: eval})

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	// GET on a /v1 endpoint: 405 with Allow.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("GET /v1/predict: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/simulate", `not json`, http.StatusBadRequest},
		{"/v1/simulate", `{"op":"simulate","workload":{"bench":"zzz"},"target":{"sms":8}}`, http.StatusBadRequest},
		{"/v1/simulate", `{"op":"predict","workload":{"bench":"dct"}}`, http.StatusBadRequest},  // op/path mismatch
		{"/v1/simulate", `{"op":"simulate","workload":{"bench":"dct"}}`, http.StatusBadRequest}, // no target
		{"/v1/predict", `{"workload":{"bench":"dct"}}`, http.StatusOK},                          // op filled from path
	}
	for _, tc := range cases {
		code, _, body := post(t, ts.Client(), ts.URL, tc.path, tc.body, "")
		if code != tc.want {
			t.Errorf("POST %s %s: %d %s, want %d", tc.path, tc.body, code, body, tc.want)
		}
		if code != http.StatusOK && !strings.Contains(string(body), `"error"`) {
			t.Errorf("error response without error body: %s", body)
		}
	}
}

// TestServerEvalPanic500: a panicking evaluation answers 500 and counts a
// server error instead of dropping the connection, and it leaves the
// request's key free: the next identical request is evaluated again.
func TestServerEvalPanic500(t *testing.T) {
	var evals atomic.Int32
	eval := func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
		if evals.Add(1) == 1 {
			panic("evaluator bug")
		}
		return []byte(`{}`), nil
	}
	_, ts := newTestServer(t, Options{Eval: eval})
	body := `{"op":"simulate","target":{"sms":8},"workload":{"bench":"dct"}}`
	client := &http.Client{Timeout: 10 * time.Second}
	code, _, got := post(t, client, ts.URL, "/v1/simulate", body, "")
	if code != http.StatusInternalServerError || !strings.Contains(string(got), "evaluator bug") {
		t.Errorf("panicking evaluation: %d %s, want 500 naming the panic", code, got)
	}
	if n := metric(t, ts.URL, "server_errors"); n != 1 {
		t.Errorf("server_errors = %d, want 1", n)
	}
	code, hdr, got := post(t, client, ts.URL, "/v1/simulate", body, "")
	if code != http.StatusOK || hdr.Get("X-Cache") != "computed" {
		t.Errorf("retry: %d X-Cache %q %s, want 200 computed", code, hdr.Get("X-Cache"), got)
	}
	if n := evals.Load(); n != 2 {
		t.Errorf("%d evaluations, want 2 (the retry evaluates again)", n)
	}
}

// TestServerLatencyHistogramFractional pins server/latency_ms's unit:
// observations are fractional milliseconds, so cache hits — each well under
// a millisecond — still move the histogram's sum instead of recording 0.
func TestServerLatencyHistogramFractional(t *testing.T) {
	eval := func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
		return []byte(`{}`), nil
	}
	s, ts := newTestServer(t, Options{Eval: eval})
	body := `{"op":"simulate","target":{"sms":8},"workload":{"bench":"dct"}}`
	if code, _, got := post(t, ts.Client(), ts.URL, "/v1/simulate", body, ""); code != http.StatusOK {
		t.Fatalf("first simulate: %d %s", code, got)
	}
	before := s.m.latencyMS.Sum()
	const hits = 8
	for i := 0; i < hits; i++ {
		code, hdr, got := post(t, ts.Client(), ts.URL, "/v1/simulate", body, "")
		if code != http.StatusOK || hdr.Get("X-Cache") != "memory" {
			t.Fatalf("hit %d: %d X-Cache=%q %s, want a 200 memory hit", i, code, hdr.Get("X-Cache"), got)
		}
	}
	if n := s.m.latencyMS.Count(); n != hits+1 {
		t.Errorf("latency histogram count = %d, want %d", n, hits+1)
	}
	if after := s.m.latencyMS.Sum(); after <= before {
		t.Errorf("latency sum stayed at %v ms over %d cache hits; sub-millisecond hits must count", after, hits)
	}
}

// cachedAnalytic returns the daemon's cheapest answer as a func: a
// tier=analytic predict whose body the memory store already holds, served
// by Handler into a recorder with no network in between — intake, hash,
// store lookup and response headers.
func cachedAnalytic(tb testing.TB) func() *httptest.ResponseRecorder {
	s, err := New(Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	h := s.Handler()
	body := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"analytic"}}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		return rec
	}
	for i, want := range []string{"computed", "memory"} {
		if rec := serve(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
			tb.Fatalf("cached analytic predict %d: %d X-Cache=%q, want 200 %s", i, rec.Code, rec.Header().Get("X-Cache"), want)
		}
	}
	return serve
}

// TestHandleCachedAnalyticAllocs pins the allocations of the daemon's
// cheapest answer, recorder and request included, at 50, so work on the
// hot path can only lower them. Allocation counts are unreliable under
// -race, and make race runs this package with -short, so -short skips it;
// make noalloc runs it.
func TestHandleCachedAnalyticAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts; run by make noalloc")
	}
	serve := cachedAnalytic(t)
	if allocs := testing.AllocsPerRun(1000, func() { serve() }); allocs > 50 {
		t.Errorf("%.0f allocations per cached analytic answer, want at most 50", allocs)
	}
}

// BenchmarkHandleCachedAnalytic measures cachedAnalytic's answer.
func BenchmarkHandleCachedAnalytic(b *testing.B) {
	serve := cachedAnalytic(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "memory" {
			b.Fatalf("cached analytic predict: %d X-Cache=%q", rec.Code, rec.Header().Get("X-Cache"))
		}
	}
}
