package server

// Latency-tier routing tests: the analytic fast path serves without
// simulating and caches under its own keyspace, auto escalates
// byte-identically to the cycle pipeline when confidence is low, and a
// settled cycle response outranks a fresh analytic estimate. The
// analytic-only test runs no simulation and never skips; the escalation
// and settled-cycle tests drive the real simulator and skip under -short.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale"
	"gpuscale/internal/harness"
)

// TestServerAnalyticTier exercises the simulation-free fast path: an
// auto-tier request on a cold cache and a direct analytic-tier request
// must both be served analytically (ht's confidence is 1.0), the second
// from the analytic keyspace's memory cache, byte-identically.
func TestServerAnalyticTier(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	auto := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto"}}`
	code, hdr, first := post(t, ts.Client(), ts.URL, "/v1/predict", auto, "")
	if code != http.StatusOK {
		t.Fatalf("auto predict: %d %s", code, first)
	}
	if got := hdr.Get("X-Tier"); got != "analytic" {
		t.Errorf("auto X-Tier = %q, want analytic", got)
	}
	if got := hdr.Get("X-Cache"); got != "computed" {
		t.Errorf("auto X-Cache = %q, want computed", got)
	}
	if !bytes.Contains(first, []byte(`"tier":"analytic"`)) {
		t.Errorf("analytic body does not declare its tier: %s", first)
	}
	if !bytes.Contains(first, []byte(`"confidence":`)) {
		t.Errorf("analytic body carries no confidence: %s", first)
	}

	direct := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"analytic"}}`
	code, hdr, second := post(t, ts.Client(), ts.URL, "/v1/predict", direct, "")
	if code != http.StatusOK {
		t.Fatalf("analytic predict: %d %s", code, second)
	}
	if got := hdr.Get("X-Tier"); got != "analytic" {
		t.Errorf("analytic X-Tier = %q, want analytic", got)
	}
	if got := hdr.Get("X-Cache"); got != "memory" {
		t.Errorf("analytic X-Cache = %q, want memory (same analytic cache key)", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("analytic cache replay is not byte-identical")
	}

	if v := metric(t, ts.URL, "server_tier_analytic"); v != 2 {
		t.Errorf("server_tier_analytic = %d, want 2", v)
	}
	if v := metric(t, ts.URL, "server_tier_escalated"); v != 0 {
		t.Errorf("server_tier_escalated = %d, want 0", v)
	}
	if v := metric(t, ts.URL, "server_sims_started"); v != 0 {
		t.Errorf("server_sims_started = %d, want 0 (no simulation on the analytic path)", v)
	}
}

// TestServerAnalyticStoreFirst pins the analytic tier's order: a direct
// analytic request asks the store before it runs the model. A sentinel body
// stored under the request's analytic key must come back verbatim from
// disk while the injected model records every call; a request with nothing
// stored runs the model, whose error answers 500 and counts a server error.
func TestServerAnalyticStoreFirst(t *testing.T) {
	dir := t.TempDir()
	stored := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"analytic"}}`
	req, err := gpuscale.ParseRequest([]byte(stored))
	if err != nil {
		t.Fatal(err)
	}
	_, hash, err := gpuscale.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := []byte(`{"sentinel":"stored analytic body"}`)
	seed, err := harness.NewResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := seed.Do(context.Background(), gpuscale.AnalyticCacheKey(hash), func() ([]byte, error) {
		return sentinel, nil
	}); err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Options{StoreDir: dir, Workers: 1})
	var runs atomic.Int32
	s.predict = func(gpuscale.Request) (gpuscale.AnalyticPrediction, error) {
		runs.Add(1)
		return gpuscale.AnalyticPrediction{}, errors.New("model failure")
	}

	code, hdr, got := post(t, ts.Client(), ts.URL, "/v1/predict", stored, "")
	if code != http.StatusOK {
		t.Fatalf("stored analytic predict: %d %s", code, got)
	}
	if !bytes.Equal(got, sentinel) {
		t.Errorf("body = %s, want the stored sentinel %s", got, sentinel)
	}
	if v := hdr.Get("X-Cache"); v != "disk" {
		t.Errorf("X-Cache = %q, want disk", v)
	}
	if v := hdr.Get("X-Tier"); v != "analytic" {
		t.Errorf("X-Tier = %q, want analytic", v)
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("the model ran %d times for a stored analytic body, want 0", n)
	}

	fresh := `{"op":"predict","workload":{"bench":"bfs"},"options":{"tier":"analytic"}}`
	code, _, got = post(t, ts.Client(), ts.URL, "/v1/predict", fresh, "")
	if code != http.StatusInternalServerError || !strings.Contains(string(got), "model failure") {
		t.Errorf("unstored analytic predict with a failing model: %d %s, want 500 with the model error", code, got)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("the model ran %d times for an unstored body, want 1", n)
	}
	if v := metric(t, ts.URL, "server_errors"); v != 1 {
		t.Errorf("server_errors = %d, want 1", v)
	}
	if v := metric(t, ts.URL, "server_tier_analytic"); v != 1 {
		t.Errorf("server_tier_analytic = %d, want 1", v)
	}
}

// TestServerAutoReadsStoredConfidence: an auto request whose analytic body
// is already stored takes the escalation decision from the confidence that
// body records, so two identical auto requests run the model once.
func TestServerAutoReadsStoredConfidence(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	var runs atomic.Int32
	s.predict = func(req gpuscale.Request) (gpuscale.AnalyticPrediction, error) {
		runs.Add(1)
		return gpuscale.PredictAnalytic(req)
	}
	auto := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto"}}`
	var bodies [2][]byte
	for i, want := range []string{"computed", "memory"} {
		code, hdr, got := post(t, ts.Client(), ts.URL, "/v1/predict", auto, "")
		if code != http.StatusOK || hdr.Get("X-Tier") != "analytic" || hdr.Get("X-Cache") != want {
			t.Fatalf("auto predict %d: %d X-Tier %q X-Cache %q, want 200 analytic %s", i, code, hdr.Get("X-Tier"), hdr.Get("X-Cache"), want)
		}
		bodies[i] = got
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("the stored analytic body was not replayed byte-identically")
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("the model ran %d times for two identical auto requests, want 1", n)
	}
	if v := metric(t, ts.URL, "server_tier_escalated"); v != 0 {
		t.Errorf("server_tier_escalated = %d, want 0", v)
	}
}

// TestServerAutoModelPanic500: a panicking analytic model on the auto
// tier's confidence check answers 500 and counts a server error, like a
// panicking evaluation, instead of dropping the connection.
func TestServerAutoModelPanic500(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.predict = func(gpuscale.Request) (gpuscale.AnalyticPrediction, error) { panic("model bug") }
	auto := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto"}}`
	code, _, got := post(t, ts.Client(), ts.URL, "/v1/predict", auto, "")
	if code != http.StatusInternalServerError || !strings.Contains(string(got), "model bug") {
		t.Errorf("auto predict with a panicking model: %d %s, want 500 naming the panic", code, got)
	}
	if v := metric(t, ts.URL, "server_errors"); v != 1 {
		t.Errorf("server_errors = %d, want 1", v)
	}
}

// TestServerAutoEscalation drives the confidence gate: the MCM case study
// is exactly what the analytic model discounts (confidence below the
// default threshold), so an auto request must escalate to the cycle
// pipeline and return bytes identical to a direct cycle request.
func TestServerAutoEscalation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 2})

	auto := `{"op":"predict","target":{"chiplets":16},"workload":{"bench":"bfs","weak":true},"options":{"tier":"auto"}}`
	code, hdr, escalated := post(t, ts.Client(), ts.URL, "/v1/predict", auto, "")
	if code != http.StatusOK {
		t.Fatalf("auto predict: %d %s", code, escalated)
	}
	if got := hdr.Get("X-Tier"); got != "cycle" {
		t.Errorf("escalated X-Tier = %q, want cycle", got)
	}
	if bytes.Contains(escalated, []byte(`"tier":`)) {
		t.Errorf("escalated cycle body leaks a tier field: %s", escalated)
	}
	if v := metric(t, ts.URL, "server_tier_escalated"); v != 1 {
		t.Errorf("server_tier_escalated = %d, want 1", v)
	}
	if v := metric(t, ts.URL, "server_tier_analytic"); v != 0 {
		t.Errorf("server_tier_analytic = %d, want 0", v)
	}

	cycle := strings.Replace(auto, `,"options":{"tier":"auto"}`, "", 1)
	code, hdr, direct := post(t, ts.Client(), ts.URL, "/v1/predict", cycle, "")
	if code != http.StatusOK {
		t.Fatalf("cycle predict: %d %s", code, direct)
	}
	if got := hdr.Get("X-Cache"); got != "memory" {
		t.Errorf("cycle X-Cache = %q, want memory (escalation settled the canonical key)", got)
	}
	if !bytes.Equal(escalated, direct) {
		t.Error("escalated response differs from a direct cycle response")
	}
}

// TestServerAutoEscalatesOnUarch pins the structural-confidence gate: the
// analytic model is calibrated against the default microarchitecture only,
// so a non-default variant discounts its confidence below the threshold and
// an auto-tier request must escalate to the cycle pipeline, which actually
// simulates the variant.
func TestServerAutoEscalatesOnUarch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 2})

	auto := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto","uarch":{"scheduler":"two-level"}}}`
	code, hdr, escalated := post(t, ts.Client(), ts.URL, "/v1/predict", auto, "")
	if code != http.StatusOK {
		t.Fatalf("auto predict: %d %s", code, escalated)
	}
	if got := hdr.Get("X-Tier"); got != "cycle" {
		t.Errorf("uarch X-Tier = %q, want cycle (variant must force escalation)", got)
	}
	if v := metric(t, ts.URL, "server_tier_escalated"); v != 1 {
		t.Errorf("server_tier_escalated = %d, want 1", v)
	}

	// The same request without the variant serves analytically (ht's base
	// confidence is 1.0) and its body differs: the cycle pipeline simulated
	// two-level scheduling, the analytic tier modelled the default machine.
	plain := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto"}}`
	code, hdr, analytic := post(t, ts.Client(), ts.URL, "/v1/predict", plain, "")
	if code != http.StatusOK {
		t.Fatalf("plain predict: %d %s", code, analytic)
	}
	if got := hdr.Get("X-Tier"); got != "analytic" {
		t.Errorf("plain X-Tier = %q, want analytic", got)
	}
	if bytes.Equal(escalated, analytic) {
		t.Error("variant response is byte-identical to the default analytic response")
	}
}

// TestServerAutoPrefersSettledCycle pins the fast path's cache shortcut:
// once a cycle response has settled under the canonical hash, an
// auto-tier request serves it (the real answer) instead of an estimate.
func TestServerAutoPrefersSettledCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := newTestServer(t, Options{Workers: 2})

	cycle := `{"op":"predict","workload":{"bench":"ht"}}`
	code, _, direct := post(t, ts.Client(), ts.URL, "/v1/predict", cycle, "")
	if code != http.StatusOK {
		t.Fatalf("cycle predict: %d %s", code, direct)
	}

	auto := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto"}}`
	code, hdr, second := post(t, ts.Client(), ts.URL, "/v1/predict", auto, "")
	if code != http.StatusOK {
		t.Fatalf("auto predict: %d %s", code, second)
	}
	if got := hdr.Get("X-Tier"); got != "cycle" {
		t.Errorf("auto X-Tier = %q, want cycle (settled response outranks the estimate)", got)
	}
	if got := hdr.Get("X-Cache"); got != "memory" {
		t.Errorf("auto X-Cache = %q, want memory", got)
	}
	if !bytes.Equal(direct, second) {
		t.Error("auto-served settled response is not byte-identical to the cycle response")
	}
	if v := metric(t, ts.URL, "server_tier_analytic"); v != 0 {
		t.Errorf("server_tier_analytic = %d, want 0", v)
	}
}

// TestServerTierWaiterCancelled: a client that leaves while it waits on an
// analytic or auto answer another request is computing counts in
// server_cancelled and nowhere else, as it does on the cycle tier. The
// model blocks until the test releases it, so the first request owns the
// computation and the second, identical one waits on it until its client
// cancels.
func TestServerTierWaiterCancelled(t *testing.T) {
	for _, tier := range []string{gpuscale.TierAnalytic, gpuscale.TierAuto} {
		t.Run(tier, func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1})
			entered, release := make(chan struct{}, 2), make(chan struct{})
			unblock := sync.OnceFunc(func() { close(release) })
			t.Cleanup(unblock) // before the server's cleanup, which waits for handlers
			s.predict = func(req gpuscale.Request) (gpuscale.AnalyticPrediction, error) {
				entered <- struct{}{}
				<-release
				return gpuscale.PredictAnalytic(req)
			}
			body := `{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"` + tier + `"}}`
			send := func(ctx context.Context) (int, error) {
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(body))
				if err != nil {
					return 0, err
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					return 0, err
				}
				resp.Body.Close()
				return resp.StatusCode, nil
			}
			owner := make(chan int, 1)
			go func() {
				code, _ := send(context.Background())
				owner <- code
			}()
			<-entered

			ctx, cancel := context.WithCancel(context.Background())
			waiter := make(chan error, 1)
			go func() {
				_, err := send(ctx)
				waiter <- err
			}()
			eventually(t, "the second request reached the handler", func() bool {
				return metric(t, ts.URL, "server_requests_predict") == 2
			})
			cancel()
			if err := <-waiter; err == nil {
				t.Error("cancelled client request reported no error")
			}
			eventually(t, "the server finished the cancelled request", func() bool {
				return metric(t, ts.URL, "server_cancelled")+metric(t, ts.URL, "server_errors") > 0
			})
			for name, want := range map[string]uint64{"server_cancelled": 1, "server_errors": 0, "server_latency_ms_count": 1} {
				if v := metric(t, ts.URL, name); v != want {
					t.Errorf("%s = %d, want %d", name, v, want)
				}
			}

			unblock()
			if code := <-owner; code != http.StatusOK {
				t.Errorf("owner request: %d, want 200", code)
			}
			if v := metric(t, ts.URL, "server_latency_ms_count"); v != 2 {
				t.Errorf("server_latency_ms_count = %d, want 2", v)
			}
		})
	}
}

// eventually polls cond until it holds, failing the test after 10 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}
