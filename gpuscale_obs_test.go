// Facade-level tests for the observability layer and the context-aware
// simulation API: trace shape, exact metrics↔stats agreement, functional
// options, and cancellation of in-flight simulations.
package gpuscale_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"gpuscale"
	"gpuscale/internal/trace"
)

// bigLinear is a deliberately long-running workload for cancellation tests:
// sequential simulation takes many seconds, so a prompt return proves the
// run loop saw the cancelled context mid-flight.
func bigLinear(name string) gpuscale.Workload {
	return &gpuscale.FuncWorkload{
		WName: name,
		Spec:  gpuscale.KernelSpec{NumCTAs: 4096, WarpsPerCTA: 2},
		Factory: func(cta, warp int) gpuscale.Program {
			g := &trace.SeqGen{Base: uint64(cta*2+warp) * 37 * 128, Stride: 128, Extent: 37 * 128}
			return gpuscale.NewPhaseProgram(gpuscale.Phase{N: 1000, ComputePer: 9, Gen: g})
		},
	}
}

// TestObserverMetricsMatchStats checks the acceptance criterion that the
// registry totals agree EXACTLY with the SimStats fields for the same run.
func TestObserverMetricsMatchStats(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	rec := gpuscale.NewObserver()
	w := smallLinear("obs-exact")
	st, err := gpuscale.SimulateContext(context.Background(), cfg, w, gpuscale.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Registry().Snapshot()
	// A fresh recorder numbers its first stream 1, so the scope is exact.
	prefix := cfg.Name + "/obs-exact#1/"
	for key, want := range map[string]uint64{
		prefix + "l1/accesses":  st.L1Accesses,
		prefix + "l1/misses":    st.L1Misses,
		prefix + "llc/accesses": st.LLCAccesses,
		prefix + "llc/misses":   st.LLCMisses,
		prefix + "noc/bytes":    st.NoCBytes,
		prefix + "dram/bytes":   st.DRAMBytes,
	} {
		got, ok := snap.Counters[key]
		if !ok {
			t.Errorf("counter %q missing from snapshot", key)
			continue
		}
		if got != want {
			t.Errorf("counter %q = %d, want %d (SimStats)", key, got, want)
		}
	}
}

// TestObserverMetricsMatchStatsWarmup repeats the exactness check with
// warm-up filtering, which resets the statistics mid-run.
func TestObserverMetricsMatchStatsWarmup(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	plain, err := gpuscale.SimulateContext(context.Background(), cfg, smallLinear("obs-warm"))
	if err != nil {
		t.Fatal(err)
	}
	rec := gpuscale.NewObserver()
	st, err := gpuscale.SimulateContext(context.Background(), cfg, smallLinear("obs-warm"),
		gpuscale.WithObserver(rec),
		gpuscale.WithWarmupInstructions(plain.Instructions/2))
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Registry().Snapshot()
	prefix := cfg.Name + "/obs-warm#1/"
	if got := snap.Counters[prefix+"llc/misses"]; got != st.LLCMisses {
		t.Errorf("llc/misses = %d, want %d after warmup reset", got, st.LLCMisses)
	}
	if got := snap.Counters[prefix+"dram/bytes"]; got != st.DRAMBytes {
		t.Errorf("dram/bytes = %d, want %d after warmup reset", got, st.DRAMBytes)
	}
}

// TestObserverChromeTrace checks the golden-file criterion: the emitted
// trace is valid Chrome trace_event JSON and its timestamps are
// monotonically non-decreasing.
func TestObserverChromeTrace(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	rec := gpuscale.NewObserver()
	_, err := gpuscale.SimulateContext(context.Background(), cfg, smallLinear("obs-trace"),
		gpuscale.WithObserver(rec), gpuscale.WithSampleInterval(512))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Pid   int64   `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var kernels, counters int
	lastTS := -1.0
	for i, e := range tf.TraceEvents {
		if e.Name == "" || e.Phase == "" {
			t.Fatalf("event %d missing name/ph: %+v", i, e)
		}
		if e.Phase == "M" {
			continue // metadata carries no timestamp
		}
		if e.TS < lastTS {
			t.Fatalf("event %d ts=%v precedes %v: timestamps not monotone", i, e.TS, lastTS)
		}
		lastTS = e.TS
		switch e.Phase {
		case "X":
			if e.Cat == "kernel" {
				kernels++
			}
		case "C":
			counters++
		}
	}
	if kernels == 0 {
		t.Error("no kernel span in trace")
	}
	if counters == 0 {
		t.Error("no counter samples in trace (sampling did not run)")
	}

	// The JSONL form must be one valid JSON object per line.
	buf.Reset()
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tf.TraceEvents) {
		t.Fatalf("JSONL has %d lines, trace has %d events", len(lines), len(tf.TraceEvents))
	}
	for i, line := range lines {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("JSONL line %d invalid: %v", i, err)
		}
	}
}

// TestSimOptions exercises the functional options of SimulateContext.
func TestSimOptions(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	ctx := context.Background()

	plain, err := gpuscale.SimulateContext(ctx, cfg, smallLinear("obs-opts"))
	if err != nil {
		t.Fatal(err)
	}
	// Event skip changes host time only.
	slow, err := gpuscale.SimulateContext(ctx, cfg, smallLinear("obs-opts"), gpuscale.WithEventSkip(false))
	if err != nil {
		t.Fatal(err)
	}
	if plain.IPC != slow.IPC || plain.Cycles != slow.Cycles {
		t.Errorf("WithEventSkip(false) changed results: %+v vs %+v", plain, slow)
	}
	// A legacy options struct folds in via WithOptions.
	viaStruct, err := gpuscale.SimulateContext(ctx, cfg, smallLinear("obs-opts"),
		gpuscale.WithOptions(gpuscale.SimOptions{WarmupInstructions: plain.Instructions / 2}))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := gpuscale.SimulateContext(ctx, cfg, smallLinear("obs-opts"),
		gpuscale.WithWarmupInstructions(plain.Instructions/2))
	if err != nil {
		t.Fatal(err)
	}
	if viaStruct != direct {
		t.Error("WithOptions and WithWarmupInstructions disagree")
	}
	// MaxCycles aborts over-long runs with an error.
	if _, err := gpuscale.SimulateContext(ctx, cfg, smallLinear("obs-opts"), gpuscale.WithMaxCycles(10)); err == nil {
		t.Error("WithMaxCycles(10) did not abort")
	}
}

// TestSimulateContextCancelled checks that a cancelled context aborts a
// monolithic simulation mid-run.
func TestSimulateContextCancelled(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gpuscale.SimulateContext(ctx, cfg, smallLinear("obs-cancel")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSimulateMCMContextCancelled checks the chiplet run loop honours
// cancellation too.
func TestSimulateMCMContextCancelled(t *testing.T) {
	mcm := gpuscale.Target16Chiplet()
	mcm.Chiplet.NumSMs = 4
	cfg, err := gpuscale.ScaleChiplets(mcm, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := gpuscale.SimulateMCMContext(ctx, cfg, smallLinear("obs-mcm-cancel")); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunJobsCancelsInFlight is the regression test for sweep cancellation:
// cancelling a sweep's context must abort the simulation already running,
// not just undispatched jobs. The workload takes many seconds sequentially;
// the generous deadline below only trips when the in-flight abort is broken.
func TestRunJobsCancelsInFlight(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	jobs := []gpuscale.Job{gpuscale.NewJob(cfg, bigLinear("obs-inflight"))}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := sweep(ctx, 1, jobs)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep err = %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v: the in-flight simulation was not aborted", elapsed)
	}
}

// TestObserverSampling checks WithSampleInterval drives the sampler and the
// samples carry the advertised series.
func TestObserverSampling(t *testing.T) {
	cfg := gpuscale.MustScale(gpuscale.Baseline128(), 8)
	rec := gpuscale.NewObserver(gpuscale.ObserverSampleEvery(256))
	st, err := gpuscale.SimulateContext(context.Background(), cfg, smallLinear("obs-sample"),
		gpuscale.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	samples := rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	want := st.Cycles / 256
	if int64(len(samples)) > want+1 {
		t.Errorf("%d samples for %d cycles at interval 256", len(samples), st.Cycles)
	}
	for _, key := range []string{"occupancy", "ipc", "dram_util"} {
		if _, ok := samples[0].Values[key]; !ok {
			t.Errorf("sample missing series %q", key)
		}
	}
	last := int64(-1)
	for _, s := range samples {
		if s.Cycle < last {
			t.Fatalf("sample cycles not monotone: %d after %d", s.Cycle, last)
		}
		last = s.Cycle
	}
}
