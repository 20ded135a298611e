package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// tinyWorkload returns a small deterministic workload that simulates in
// well under a millisecond, for tests that exercise engine mechanics
// rather than the simulator.
func tinyWorkload(name string) trace.Workload {
	return &trace.FuncWorkload{
		WName: name,
		Spec:  trace.KernelSpec{NumCTAs: 8, WarpsPerCTA: 2},
		Factory: func(cta, warp int) trace.Program {
			return trace.NewPhaseProgram(trace.Phase{
				N: 64, ComputePer: 3,
				Gen: &trace.SeqGen{Start: uint64(cta * 4096), Stride: 128, Extent: 1 << 20},
			})
		},
	}
}

// tinySuite returns three fast workloads with deliberately different memory
// behaviour (cyclic streaming, seeded random walk, L1-bypassing camping),
// so the determinism check covers the simulator's distinct code paths
// without the cost of the full paper benchmarks.
func tinySuite() []trace.Workload {
	stream := tinyWorkload("tiny-stream")
	random := &trace.FuncWorkload{
		WName: "tiny-random",
		Spec:  trace.KernelSpec{NumCTAs: 8, WarpsPerCTA: 2},
		Factory: func(cta, warp int) trace.Program {
			return trace.NewPhaseProgram(trace.Phase{
				N: 64, ComputePer: 1,
				Gen: trace.NewRandGen(0, 128, 8<<20, trace.WarpSeed(7, cta, warp)),
			})
		},
	}
	camping := &trace.FuncWorkload{
		WName: "tiny-camping",
		Spec:  trace.KernelSpec{NumCTAs: 8, WarpsPerCTA: 2, CTAsPerSMLimit: 1},
		Factory: func(cta, warp int) trace.Program {
			return trace.NewPhaseProgram(trace.Phase{
				N: 64, ComputePer: 0,
				Gen:   &trace.SeqGen{Base: 1 << 30, Stride: 128, Extent: 16 * 128},
				Flags: trace.BypassL1,
			})
		},
	}
	return []trace.Workload{stream, random, camping}
}

// panicWorkload panics while instantiating warp programs, modelling a buggy
// generator that blows up mid-simulation.
type panicWorkload struct{ trace.Workload }

func (p panicWorkload) NewProgram(cta, warp int) trace.Program {
	if cta >= 2 {
		panic(fmt.Sprintf("generator bug at cta=%d", cta))
	}
	return p.Workload.NewProgram(cta, warp)
}

// sweep runs jobs through Exec on a Map pool of the given size: the
// parallel sweep every experiment driver builds from the engine.
func sweep(ctx context.Context, workers int, jobs []Job) ([]Result, error) {
	return Map(ctx, workers, jobs, func(ctx context.Context, _ int, j Job) (Result, error) {
		return Exec(ctx, j), nil
	})
}

// checkDeterminism runs the job list with 1 and with 8 workers and asserts
// bit-identical Stats in identical order.
func checkDeterminism(t *testing.T, jobs []Job) {
	t.Helper()
	seq, err := sweep(context.Background(), 1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep(context.Background(), 8, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("result lengths %d/%d, want %d", len(seq), len(par), len(jobs))
	}
	for i := range jobs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d errors: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Stats, par[i].Stats) {
			t.Errorf("job %q: parallel Stats differ from sequential:\nseq: %+v\npar: %+v",
				jobs[i].Label(), seq[i].Stats, par[i].Stats)
		}
		if par[i].Job.Label() != jobs[i].Label() {
			t.Errorf("result %d is for %q, want %q", i, par[i].Job.Label(), jobs[i].Label())
		}
	}
}

// TestRunDeterminism is the headline guarantee: a parallel sweep (8
// workers) returns bit-identical Stats, in identical order, to a
// sequential (1 worker) sweep of the same job list — here over three
// workloads with distinct memory behaviour on two configurations each.
func TestRunDeterminism(t *testing.T) {
	base := config.Baseline128()
	var jobs []Job
	for _, w := range tinySuite() {
		for _, n := range []int{8, 16} {
			jobs = append(jobs, NewJob(config.MustScale(base, n), w))
		}
	}
	checkDeterminism(t, jobs)
}

// TestRunDeterminismPaperBenchmarks repeats the determinism check on three
// real Table II benchmarks — one per scaling class — on the 8- and 16-SM
// scale models. Skipped in -short mode (each simulation costs seconds).
func TestRunDeterminismPaperBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("paper benchmarks are slow; run without -short")
	}
	base := config.Baseline128()
	var jobs []Job
	for _, name := range []string{"dct", "bfs", "pf"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{8, 16} {
			jobs = append(jobs, NewJob(config.MustScale(base, n), b.Workload))
		}
	}
	checkDeterminism(t, jobs)
}

// TestRunPanicIsolation checks that a panicking simulation fails only its
// own job: the sweep completes, every other job succeeds, and the failed
// job's Result carries a *PanicError.
func TestRunPanicIsolation(t *testing.T) {
	jobs := []Job{
		NewJob(config.MustScale(config.Baseline128(), 8), tinyWorkload("ok-a")),
		NewJob(config.MustScale(config.Baseline128(), 8), panicWorkload{tinyWorkload("boom")}),
		NewJob(config.MustScale(config.Baseline128(), 8), tinyWorkload("ok-b")),
	}
	results, err := sweep(context.Background(), 3, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	var pe *PanicError
	if !errors.As(results[1].Err, &pe) {
		t.Fatalf("panicking job error = %v, want *PanicError", results[1].Err)
	}
	if !strings.Contains(pe.Error(), "generator bug") {
		t.Errorf("panic error %q does not carry the panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error has no stack trace")
	}
}

// TestRunCancellation checks that a cancelled context stops dispatching:
// the sweep reports the context error, and a job that was dispatched
// anyway either finished or carries the cancellation.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{
		NewJob(config.MustScale(config.Baseline128(), 8), tinyWorkload("never-a")),
		NewJob(config.MustScale(config.Baseline128(), 8), tinyWorkload("never-b")),
	}
	results, err := sweep(ctx, 2, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	for i, r := range results {
		ran := r.Job.Kernels != nil
		if ran && r.Err == nil && r.Stats.Instructions == 0 {
			t.Errorf("job %d ran but neither finished nor carries a cancellation error", i)
		}
		if ran && r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestRunProgress checks Tally's progress snapshots over a sweep: monotone
// Done, final snapshot complete, throughput populated.
func TestRunProgress(t *testing.T) {
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, NewJob(config.MustScale(config.Baseline128(), 8),
			tinyWorkload(fmt.Sprintf("w%d", i))))
	}
	var snaps []Progress
	note := Tally(len(jobs), func(p Progress) { snaps = append(snaps, p) })
	_, err := Map(context.Background(), 3, jobs, func(ctx context.Context, _ int, j Job) (Result, error) {
		r := Exec(ctx, j)
		note(r.Stats.Cycles, r.Err)
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(jobs) {
		t.Fatalf("got %d progress snapshots, want %d", len(snaps), len(jobs))
	}
	for i, p := range snaps {
		if p.Done != i+1 {
			t.Errorf("snapshot %d: Done=%d, want %d", i, p.Done, i+1)
		}
		if p.Total != len(jobs) {
			t.Errorf("snapshot %d: Total=%d, want %d", i, p.Total, len(jobs))
		}
	}
	last := snaps[len(snaps)-1]
	if last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}
	if last.Cycles <= 0 || last.CyclesPerSec <= 0 {
		t.Errorf("final throughput empty: %+v", last)
	}
	if last.Failed != 0 {
		t.Errorf("final Failed = %d, want 0", last.Failed)
	}
}

// TestRunEmptyKernels checks that a malformed job fails cleanly without
// aborting the sweep.
func TestRunEmptyKernels(t *testing.T) {
	jobs := []Job{
		{Name: "empty", Config: config.MustScale(config.Baseline128(), 8)},
		NewJob(config.MustScale(config.Baseline128(), 8), tinyWorkload("fine")),
	}
	results, err := sweep(context.Background(), 2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("kernel-less job did not fail")
	}
	if results[1].Err != nil {
		t.Errorf("healthy job failed: %v", results[1].Err)
	}
}

// TestMapOrderingAndError checks Map's deterministic ordering and its
// lowest-index error selection.
func TestMapOrderingAndError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	out, err := Map(context.Background(), 4, items, func(_ context.Context, i, v int) (int, error) {
		if v == 3 || v == 6 {
			return 0, fmt.Errorf("item %d failed", v)
		}
		return v * v, nil
	})
	if err == nil || err.Error() != "item 3 failed" {
		t.Fatalf("Map error = %v, want lowest-index failure (item 3)", err)
	}
	for i, v := range items {
		if v == 3 || v == 6 {
			continue
		}
		if out[i] != v*v {
			t.Errorf("out[%d] = %d, want %d", i, out[i], v*v)
		}
	}
}

// TestMapPanic checks that a panicking callback surfaces as *PanicError.
func TestMapPanic(t *testing.T) {
	_, err := Map(context.Background(), 2, []int{1, 2}, func(_ context.Context, _, v int) (int, error) {
		if v == 2 {
			panic("kaboom")
		}
		return v, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Map error = %v, want *PanicError", err)
	}
}

// TestMapConcurrencyCap checks that Map never runs more than the requested
// number of callbacks at once.
func TestMapConcurrencyCap(t *testing.T) {
	const workers = 3
	var active, peak int32
	items := make([]int, 64)
	_, err := Map(context.Background(), workers, items, func(_ context.Context, _, _ int) (int, error) {
		n := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		atomic.AddInt32(&active, -1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&peak); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

// TestParallelSpeedup is the wall-clock acceptance check: on a host with
// at least 4 CPUs, a parallel sweep of a paperbench-style multi-workload
// grid must finish at least 2× faster than the sequential path while
// returning bit-identical Stats. Hosts with fewer cores cannot exhibit the
// speedup and skip.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; run without -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; need >= 4 to demonstrate parallel speedup", runtime.NumCPU())
	}
	base := config.Baseline128()
	var jobs []Job
	for _, name := range []string{"dct", "bfs", "pf", "va"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{8, 16} {
			jobs = append(jobs, NewJob(config.MustScale(base, n), b.Workload))
		}
	}
	t0 := time.Now()
	seq, err := sweep(context.Background(), 1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	tSeq := time.Since(t0)
	t0 = time.Now()
	par, err := sweep(context.Background(), 0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	tPar := time.Since(t0)
	for i := range jobs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d failed: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if !reflect.DeepEqual(seq[i].Stats, par[i].Stats) {
			t.Fatalf("job %q: parallel Stats differ from sequential", jobs[i].Label())
		}
	}
	speedup := float64(tSeq) / float64(tPar)
	t.Logf("sequential %v, parallel %v on %d CPUs: %.2fx", tSeq, tPar, runtime.NumCPU(), speedup)
	if speedup < 2 {
		t.Errorf("parallel sweep speedup %.2fx on %d CPUs, want >= 2x", speedup, runtime.NumCPU())
	}
}

// TestWorkersNormalisation checks the <=0 → NumCPU rule.
func TestWorkersNormalisation(t *testing.T) {
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("Workers did not normalise non-positive counts")
	}
	if Workers(7) != 7 {
		t.Error("Workers changed an explicit count")
	}
}
