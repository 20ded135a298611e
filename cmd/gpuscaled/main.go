// Command gpuscaled is the scale-model prediction daemon: a long-running
// HTTP/JSON service over the gpuscale simulator and predictor. It serves
//
//	POST /v1/predict   scale-model prediction pipeline (the paper's product)
//	POST /v1/simulate  one timing simulation
//	POST /v1/mrc       a miss-rate curve
//	GET  /metrics      Prometheus metrics
//	GET  /healthz      liveness
//
// against the canonical request schema (gpuscale.Request; docs/SERVICE.md).
// Every simulation it starts, monolithic or multi-chip-module, takes one of
// -parallel slots.
// Responses are cached by canonical request hash in a two-level store —
// in-memory in front of -store on disk — so identical requests are served
// byte-identically without re-simulating, across restarts.
//
// Example:
//
//	gpuscaled -addr :8372 -store /var/lib/gpuscaled &
//	curl -s localhost:8372/v1/predict -d '{"op":"predict","workload":{"bench":"dct"}}'
//
// -smoke runs an in-process self-test (bind an ephemeral port, one predict
// round-trip twice, verify byte-identity + the cache-hit counter, scrape
// /metrics, shut down cleanly) and exits; `make smoke` and CI use it.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpuscale"
	"gpuscale/cmd/internal/cliutil"
	"gpuscale/internal/server"
)

func main() {
	fs := flag.NewFlagSet("gpuscaled", flag.ExitOnError)
	addr := fs.String("addr", ":8372", "listen address")
	store := fs.String("store", "gpuscaled-store", "disk cache directory ('' = in-memory only; restarts re-simulate)")
	tenantQueue := fs.Int("tenant-queue", 64, "max admitted requests per tenant before 429")
	shards := fs.Int("mcm-shards", 0, "shard count for MCM simulations (0 = sequential; results identical)")
	memoBytes := fs.Int64("memo-bytes", 64<<20, "in-memory response cache budget in bytes (LRU eviction)")
	confidence := fs.Float64("confidence-threshold", gpuscale.DefaultConfidenceThreshold,
		"auto-tier requests below this analytic confidence escalate to the cycle simulator")
	smoke := fs.Bool("smoke", false, "run the in-process self-test and exit")
	parallel := cliutil.Parallel(fs)
	fs.Lookup("parallel").Usage = "simulations running at once, monolithic and MCM alike (<=0: all CPUs)"
	fs.Parse(os.Args[1:])

	if *smoke {
		if err := runSmoke(*parallel); err != nil {
			log.Fatalf("gpuscaled: smoke: %v", err)
		}
		fmt.Println("gpuscaled smoke: ok (analytic tier, predict round-trip, byte-identical cache hit, /metrics scrape, clean shutdown)")
		return
	}

	srv, err := server.New(server.Options{
		StoreDir:            *store,
		Workers:             *parallel,
		TenantCapacity:      *tenantQueue,
		MCMShards:           *shards,
		MemoBytes:           *memoBytes,
		ConfidenceThreshold: *confidence,
	})
	if err != nil {
		log.Fatalf("gpuscaled: %v", err)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	storeDesc := *store
	if storeDesc == "" {
		storeDesc = "(memory only)"
	}
	log.Printf("gpuscaled: listening on %s, store %s", *addr, storeDesc)

	select {
	case err := <-errc:
		log.Fatalf("gpuscaled: %v", err)
	case <-ctx.Done():
	}
	log.Printf("gpuscaled: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("gpuscaled: shutdown: %v", err)
	}
	srv.Close()
}

// runSmoke exercises the daemon end to end inside one process: it binds an
// ephemeral port, makes one auto-tier predict request (served analytically,
// no simulation) and the same cheap cycle predict request twice, and checks
// the acceptance contract — byte-identical bodies, the second cycle request
// served from cache, the tier visible in X-Tier and the /metrics counters —
// then shuts down cleanly.
func runSmoke(parallel int) error {
	srv, err := server.New(server.Options{Workers: parallel})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	post := func(reqBody string) ([]byte, http.Header, error) {
		resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(reqBody))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("predict: HTTP %d: %s", resp.StatusCode, body)
		}
		return body, resp.Header, nil
	}
	// Tier round-trip first, while the cache is cold: ht's analytic
	// confidence is high, so auto must answer from the microsecond tier
	// without starting a simulation (sims_started below stays at 2, both
	// from the scale models of the first cycle request). Once a cycle
	// response settles in the store, auto prefers it — hence cold-cache.
	third, hdr3, err := post(`{"op":"predict","workload":{"bench":"ht"},"options":{"tier":"auto"}}`)
	if err != nil {
		return err
	}
	if tier := hdr3.Get("X-Tier"); tier != "analytic" {
		return fmt.Errorf("auto-tier predict served from tier %q, want analytic", tier)
	}
	if !bytes.Contains(third, []byte(`"tier":"analytic"`)) {
		return errors.New("analytic response body does not declare its tier")
	}

	const reqBody = `{"op":"predict","workload":{"bench":"ht"}}`
	first, hdr1, err := post(reqBody)
	if err != nil {
		return err
	}
	if src := hdr1.Get("X-Cache"); src != "computed" {
		return fmt.Errorf("first predict served from %q, want computed", src)
	}
	if tier := hdr1.Get("X-Tier"); tier != "cycle" {
		return fmt.Errorf("first predict served from tier %q, want cycle", tier)
	}
	second, hdr2, err := post(reqBody)
	if err != nil {
		return err
	}
	if src := hdr2.Get("X-Cache"); src != "memory" {
		return fmt.Errorf("second predict served from %q, want memory", src)
	}
	if !bytes.Equal(first, second) {
		return errors.New("cache replay is not byte-identical to the computed response")
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	metrics, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		return err
	}
	for _, want := range []string{
		"server_cache_hits_memory 1",
		"server_requests_predict 3",
		"server_sims_started 2",
		"server_tier_analytic 1",
		"server_tier_cycle 2",
	} {
		if !strings.Contains(string(metrics), want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-done; err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}
