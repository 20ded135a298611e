package server

// Admission and store-fault tests: every simulation the daemon starts,
// MCM ones included, takes an intake slot; the tenant table holds only
// tenants with requests in flight; a corrupt disk body is recomputed, not
// served; and a body the store cannot write to disk is served from memory
// and counted.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuscale"
	"gpuscale/internal/config"
	"gpuscale/internal/engine"
	"gpuscale/internal/trace"
)

// holdSlot submits a job to in that occupies one slot until the returned
// release func is called (or the test ends), and returns once the job is
// running.
func holdSlot(t *testing.T, in *engine.Intake) (release func()) {
	t.Helper()
	running, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	j := engine.NewJob(config.MustScale(config.Baseline128(), 8), &trace.FuncWorkload{
		WName: "slot-holder",
		Spec:  trace.KernelSpec{NumCTAs: 1, WarpsPerCTA: 1},
		Factory: func(cta, warp int) trace.Program {
			once.Do(func() {
				close(running)
				<-gate
			})
			return trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 3})
		},
	})
	done := make(chan engine.Result, 1)
	go func() { done <- in.Submit(context.Background(), j) }()
	select {
	case <-running:
	case r := <-done:
		t.Fatalf("slot holder finished early: %v", r.Err)
	}
	var released sync.Once
	release = func() {
		released.Do(func() {
			close(gate)
			if r := <-done; r.Err != nil {
				t.Errorf("slot holder: %v", r.Err)
			}
		})
	}
	t.Cleanup(release) // before the server's Close, which waits for the holder
	return release
}

// TestServerMCMSimulationTakesIntakeSlot checks that an MCM simulation is
// bounded by Workers like a monolithic one: with the only slot held, an MCM
// simulate request does not run, and it runs once the slot is free.
func TestServerMCMSimulationTakesIntakeSlot(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	release := holdSlot(t, s.intake)

	// A cycle cap keeps the run short: it ends in a MaxCycles error, which
	// proves the simulation started.
	body := `{"op":"simulate","target":{"chiplets":4},"workload":{"bench":"va","weak":true},"options":{"max_cycles":2000}}`
	type answer struct {
		code int
		body []byte
	}
	answered := make(chan answer, 1)
	go func() {
		code, _, data := post(t, ts.Client(), ts.URL, "/v1/simulate", body, "")
		answered <- answer{code, data}
	}()
	select {
	case a := <-answered:
		t.Fatalf("MCM simulation ran while the only slot was held: %d %s", a.code, a.body)
	case <-time.After(300 * time.Millisecond):
	}
	release()
	a := <-answered
	if a.code != http.StatusInternalServerError || !strings.Contains(string(a.body), "MaxCycles") {
		t.Errorf("MCM simulate after release: %d %s, want 500 from the cycle cap", a.code, a.body)
	}
	if v := metric(t, ts.URL, "server_sims_started"); v != 1 {
		t.Errorf("server_sims_started = %d, want 1", v)
	}
}

// TestServerTenantTableEmptiesWhenIdle sends 10,000 sequential requests,
// each from a new tenant, and checks that no tenant entry outlives its
// request: the table is bounded by the requests in flight, not by the
// X-Tenant values clients have sent.
func TestServerTenantTableEmptiesWhenIdle(t *testing.T) {
	eval := func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
		return []byte(`{}`), nil
	}
	s, err := New(Options{Eval: eval})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := `{"op":"simulate","target":{"sms":8},"workload":{"bench":"dct"}}`
	for i := 0; i < 10000; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		req.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	s.mu.Lock()
	n := len(s.tenants)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("tenant table holds %d entries with no request in flight, want 0", n)
	}
}

// TestServerStoreCorruptRecomputes plants an empty and a truncated body
// under two requests' keys: each request must be computed afresh (not
// served from disk), its file rewritten, and the rejection counted in
// server_store_corrupt.
func TestServerStoreCorruptRecomputes(t *testing.T) {
	eval := func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
		return []byte(fmt.Sprintf(`{"sms":%d}`, req.Target.SMs)), nil
	}
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{StoreDir: dir, Eval: eval})
	for i, tc := range []struct{ sms, planted string }{
		{"8", ""},
		{"16", `{"sms":1`},
	} {
		body := `{"op":"simulate","target":{"sms":` + tc.sms + `},"workload":{"bench":"dct"}}`
		req, err := gpuscale.ParseRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		_, hash, err := gpuscale.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, hash[:2], hash+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(tc.planted), 0o644); err != nil {
			t.Fatal(err)
		}
		code, hdr, got := post(t, ts.Client(), ts.URL, "/v1/simulate", body, "")
		want := `{"sms":` + tc.sms + `}`
		if code != http.StatusOK || string(got) != want {
			t.Fatalf("sms %s over a corrupt file: %d %s, want 200 %s", tc.sms, code, got, want)
		}
		if src := hdr.Get("X-Cache"); src != "computed" {
			t.Errorf("sms %s: X-Cache %q, want computed", tc.sms, src)
		}
		if file, err := os.ReadFile(path); err != nil || string(file) != want {
			t.Errorf("sms %s: store file after recompute = %q (%v), want %s", tc.sms, file, err, want)
		}
		if v := metric(t, ts.URL, "server_store_corrupt"); v != uint64(i+1) {
			t.Errorf("server_store_corrupt = %d, want %d", v, i+1)
		}
	}
}

// TestServerStoreWriteFailedCounted makes a request's shard directory
// (dir/<first two hex chars>) a regular file, so its body cannot be written
// to disk: the body is still served, kept in memory for the next request,
// and the failed write is counted in server_store_write_failed. (A plain
// file blocks the write for root too, where a read-only mode would not.)
func TestServerStoreWriteFailedCounted(t *testing.T) {
	eval := func(ctx context.Context, req gpuscale.Request, hash string) ([]byte, error) {
		return []byte(`{"ok":true}`), nil
	}
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{StoreDir: dir, Eval: eval})
	body := `{"op":"simulate","target":{"sms":8},"workload":{"bench":"dct"}}`
	req, err := gpuscale.ParseRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	_, hash, err := gpuscale.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hash[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"computed", "memory"} {
		code, hdr, got := post(t, ts.Client(), ts.URL, "/v1/simulate", body, "")
		if code != http.StatusOK || string(got) != `{"ok":true}` {
			t.Fatalf("over an unwritable shard: %d %s, want 200 {\"ok\":true}", code, got)
		}
		if src := hdr.Get("X-Cache"); src != want {
			t.Errorf("X-Cache %q, want %s", src, want)
		}
	}
	if v := metric(t, ts.URL, "server_store_write_failed"); v != 1 {
		t.Errorf("server_store_write_failed = %d, want 1", v)
	}
}
