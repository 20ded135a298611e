package server

// Tests of the curve memo (curves.go): single-flight and failure handling
// on the memo itself with an injected sweep (these always run, and under
// the race gate), then the request-level promises over real simulations.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale"
)

func TestCurveMemoSingleFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var calls atomic.Int32
	release := make(chan struct{})
	s.sweep = func(spec gpuscale.WorkloadSpec) (gpuscale.Curve, error) {
		calls.Add(1)
		<-release
		return gpuscale.Curve{Points: []gpuscale.CurvePoint{{CapacityBytes: int64(len(spec.Bench)), MPKI: 1}}}, nil
	}
	ht := gpuscale.WorkloadSpec{Bench: "ht"}
	const waiters = 8
	curves := make([]gpuscale.Curve, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := s.startCurve(ht).Wait(context.Background())
			if err != nil {
				t.Error(err)
			}
			curves[i] = c
		}(i)
	}
	// A waiter that gives up does not take the flight with it.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.startCurve(ht).Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled wait: %v, want context.Canceled", err)
	}
	other := s.startCurve(gpuscale.WorkloadSpec{Bench: "gemm"}) // its own flight
	close(release)
	wg.Wait()
	if _, err := other.Wait(context.Background()); err != nil {
		t.Error(err)
	}
	for i, c := range curves {
		if !reflect.DeepEqual(c, curves[0]) || len(c.Points) != 1 {
			t.Errorf("waiter %d got %+v, waiter 0 %+v", i, c, curves[0])
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("%d sweeps ran, want 2 (one per workload)", n)
	}
	// Settled: a later request does not sweep.
	if _, err := s.startCurve(ht).Wait(context.Background()); err != nil {
		t.Error(err)
	}
	if got := metric(t, ts.URL, "server_curve_sweeps"); got != 2 {
		t.Errorf("server_curve_sweeps = %d, want 2", got)
	}
	if got := metric(t, ts.URL, "server_curve_memo_hits"); got != waiters+1 {
		t.Errorf("server_curve_memo_hits = %d, want %d", got, waiters+1)
	}
}

// TestCurveMemoDoesNotKeepFailures: a failed or panicking sweep answers the
// requests waiting on it and leaves the memo, so the next request sweeps
// again — an error is never replayed as if it were a curve.
func TestCurveMemoDoesNotKeepFailures(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var calls atomic.Int32
	s.sweep = func(spec gpuscale.WorkloadSpec) (gpuscale.Curve, error) {
		switch calls.Add(1) {
		case 1:
			return gpuscale.Curve{}, errors.New("boom")
		case 2:
			panic("bang")
		}
		return sweepStandard(spec)
	}
	body := `{"workload":{"bench":"ht"}}`
	for _, want := range []string{"boom", "bang"} {
		code, _, got := post(t, ts.Client(), ts.URL, "/v1/mrc", body, "")
		if code != http.StatusInternalServerError || !strings.Contains(string(got), want) {
			t.Fatalf("failing sweep: %d %s, want 500 mentioning %q", code, got, want)
		}
	}
	code, hdr, got := post(t, ts.Client(), ts.URL, "/v1/mrc", body, "")
	if code != http.StatusOK || hdr.Get("X-Cache") != "computed" {
		t.Fatalf("after the failures: %d X-Cache %q %s", code, hdr.Get("X-Cache"), got)
	}
	var resp MRCResponse
	if err := json.Unmarshal(got, &resp); err != nil || len(resp.Points) != 5 {
		t.Errorf("curve after the failures: %v, %+v", err, resp)
	}
	if n := metric(t, ts.URL, "server_curve_sweeps"); n != 3 {
		t.Errorf("server_curve_sweeps = %d, want 3", n)
	}
	if n := metric(t, ts.URL, "server_errors"); n != 2 {
		t.Errorf("server_errors = %d, want 2", n)
	}
}

// TestServerCurveMemoKeepsRequestAccounting: the memo is invisible at the
// request level. /v1/mrc after a predict of the same workload is still a
// computed answer with the bytes a cold daemon gives, but the daemon swept
// once; predict bodies equal EvalLocal's, which has no memo to hit.
func TestServerCurveMemoKeepsRequestAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	mrcBody := `{"workload":{"bench":"ht"}}`
	_, cold := newTestServer(t, Options{Workers: 2})
	code, _, coldMRC := post(t, cold.Client(), cold.URL, "/v1/mrc", mrcBody, "")
	if code != http.StatusOK {
		t.Fatalf("cold mrc: %d %s", code, coldMRC)
	}

	_, ts := newTestServer(t, Options{Workers: 2})
	predictReq := gpuscale.Request{Op: gpuscale.OpPredict, Workload: gpuscale.WorkloadSpec{Bench: "ht"}}
	wire, err := json.Marshal(predictReq)
	if err != nil {
		t.Fatal(err)
	}
	code, hdr, predict := post(t, ts.Client(), ts.URL, "/v1/predict", string(wire), "")
	if code != http.StatusOK || hdr.Get("X-Cache") != "computed" {
		t.Fatalf("predict: %d X-Cache %q %s", code, hdr.Get("X-Cache"), predict)
	}
	code, hdr, warmMRC := post(t, ts.Client(), ts.URL, "/v1/mrc", mrcBody, "")
	if code != http.StatusOK || hdr.Get("X-Cache") != "computed" {
		t.Fatalf("mrc after predict: %d X-Cache %q, want 200 computed", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(warmMRC, coldMRC) {
		t.Errorf("mrc body served from the memo differs from a cold daemon's:\n%s\n%s", warmMRC, coldMRC)
	}
	for name, want := range map[string]uint64{
		"server_curve_sweeps": 1, "server_curve_memo_hits": 1,
		"server_cache_misses": 2, "server_cache_hits_memory": 0, "server_sims_started": 2,
	} {
		if got := metric(t, ts.URL, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	local, _, err := EvalLocal(context.Background(), predictReq, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local, predict) {
		t.Errorf("EvalLocal predict body differs from the daemon's:\n%s\n%s", local, predict)
	}
}

// TestServerConcurrentPredictsShareOneSweep: two predicts for one workload
// under different uarch variants are different requests (two cache misses,
// four simulations) over one curve.
func TestServerConcurrentPredictsShareOneSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s, ts := newTestServer(t, Options{Workers: 2})
	var calls atomic.Int32
	release := make(chan struct{})
	s.sweep = func(spec gpuscale.WorkloadSpec) (gpuscale.Curve, error) {
		calls.Add(1)
		<-release // holds the flight open until both requests are on it
		return sweepStandard(spec)
	}
	bodies := make([][]byte, 2)
	var wg sync.WaitGroup
	for i, sched := range []string{"lrr", "two-level"} {
		wg.Add(1)
		go func(i int, sched string) {
			defer wg.Done()
			code, hdr, body := post(t, ts.Client(), ts.URL, "/v1/predict",
				`{"workload":{"bench":"ht"},"options":{"uarch":{"scheduler":"`+sched+`"}}}`, "")
			if code != http.StatusOK || hdr.Get("X-Cache") != "computed" {
				t.Errorf("predict under %s: %d X-Cache %q %s", sched, code, hdr.Get("X-Cache"), body)
			}
			bodies[i] = body
		}(i, sched)
	}
	deadline := time.Now().Add(30 * time.Second)
	for metric(t, ts.URL, "server_curve_memo_hits") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the second predict never joined the first one's sweep")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d sweeps ran, want 1", n)
	}
	var a, b PredictResponse
	if err := json.Unmarshal(bodies[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodies[1], &b); err != nil {
		t.Fatal(err)
	}
	if len(a.MPKI) != 5 || !reflect.DeepEqual(a.MPKI, b.MPKI) {
		t.Errorf("the two predictions carry different curves: %v, %v", a.MPKI, b.MPKI)
	}
	if a.RequestHash == b.RequestHash {
		t.Error("the two variants hashed to one request")
	}
	for name, want := range map[string]uint64{"server_cache_misses": 2, "server_cache_coalesced": 0, "server_sims_started": 4} {
		if got := metric(t, ts.URL, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
