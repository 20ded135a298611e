// Package engine fans independent simulation jobs across a pool of worker
// goroutines. Every experiment in this repository — MRC sweeps, scale-model
// calibration, the 21-workload × 5-configuration grids behind the paper's
// figures — is a list of fully independent (workload, configuration) cells,
// so the single biggest wall-clock lever is running those cells on every
// available core. The engine provides exactly that, with the guarantees an
// experiment driver needs:
//
//   - Deterministic result ordering: Run and Map return their results in
//     input order, regardless of which worker finished first, so a parallel
//     sweep is a drop-in replacement for a sequential loop.
//   - Per-job panic recovery: a diverging or buggy simulation turns into
//     that job's Result.Err (with a stack trace) instead of killing the
//     whole sweep.
//   - Context-based cancellation: cancelling the context stops dispatching
//     new jobs AND aborts in-flight simulations (the simulator run loop
//     checks the context every few thousand iterations); Run reports the
//     context error.
//   - Progress reporting: an optional callback receives jobs-done counts,
//     aggregate simulated cycles per second, and an ETA after every job.
//
// Determinism of the results themselves is a property of the simulator (a
// simulation is single-threaded and seeded), so a parallel sweep returns
// bit-identical Stats to a sequential one; the engine's own tests assert
// this. The one requirement on callers is that a trace.Workload shared by
// several jobs must be safe for concurrent NewProgram calls — the built-in
// benchmark suite satisfies this because its workloads are pure factories.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"gpuscale/internal/config"
	"gpuscale/internal/gpu"
	"gpuscale/internal/trace"
)

// Job is one unit of work: a kernel sequence to simulate on one system
// configuration. Jobs are values; the engine never mutates them.
type Job struct {
	// Name labels the job in results and progress output. If empty, a
	// "config/workload" label is derived.
	Name string
	// Config is the system to simulate on.
	Config config.SystemConfig
	// Kernels is the kernel sequence to run back to back (usually one).
	Kernels []trace.Workload
	// Options tunes the simulation (MaxCycles, warm-up, …).
	Options gpu.Options
}

// NewJob builds a single-kernel Job with a derived name.
func NewJob(cfg config.SystemConfig, w trace.Workload) Job {
	return Job{Config: cfg, Kernels: []trace.Workload{w}}
}

// Label returns the job's display name, deriving one if Name is unset.
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	if len(j.Kernels) > 0 && j.Kernels[0] != nil {
		return j.Config.Name + "/" + j.Kernels[0].Name()
	}
	return j.Config.Name
}

// Result is the outcome of one Job, in the same position as its job in the
// input slice. Exactly one of Stats and Err is meaningful: Err is non-nil
// when the job failed (including a recovered panic) or was cancelled before
// it started.
type Result struct {
	// Job is the job this result belongs to.
	Job Job
	// Stats is the simulation result when Err is nil.
	Stats gpu.Stats
	// Wall is the host time the job took (zero if never started).
	Wall time.Duration
	// Err is the job's failure, if any.
	Err error
}

// Progress is a snapshot of a running sweep, delivered to the OnProgress
// callback after every job completion.
type Progress struct {
	// Done counts finished jobs (successful or failed).
	Done int
	// Failed counts finished jobs whose Err is non-nil.
	Failed int
	// Total is the number of jobs in the sweep.
	Total int
	// Cycles is the sum of simulated cycles over successful jobs so far.
	Cycles int64
	// CyclesPerSec is Cycles divided by elapsed wall time: the sweep's
	// aggregate simulation throughput.
	CyclesPerSec float64
	// Elapsed is the wall time since the sweep started.
	Elapsed time.Duration
	// ETA estimates the remaining wall time from the mean job cost so
	// far; zero when Done is 0 or the sweep is complete.
	ETA time.Duration
}

// Options tunes a sweep.
type Options struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// OnProgress, when non-nil, is called after every job completion with
	// a Progress snapshot. Calls are serialised (never concurrent) but may
	// come from any worker goroutine.
	OnProgress func(Progress)
}

// Workers normalises a worker count: values <= 0 become runtime.NumCPU().
func Workers(n int) int {
	if n <= 0 {
		return runtime.NumCPU()
	}
	return n
}

// PanicError is the error recorded when a job or Map callback panics.
type PanicError struct {
	// Label identifies the failed unit (job label or item index).
	Label string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: %s panicked: %v", e.Label, e.Value)
}

// Run executes jobs on a worker pool and returns one Result per job, in job
// order. Job failures (errors and panics) are reported per job in
// Result.Err and do not abort the sweep; the returned error is non-nil only
// when ctx is cancelled, in which case jobs not yet started carry ctx's
// error in their Result.Err.
func Run(ctx context.Context, jobs []Job, opt Options) ([]Result, error) {
	note := Tally(len(jobs), opt.OnProgress)
	ran := make([]bool, len(jobs))
	results, err := Map(ctx, opt.Workers, jobs, func(ctx context.Context, i int, j Job) (Result, error) {
		ran[i] = true
		r := runJob(ctx, j)
		note(r.Stats.Cycles, r.Err)
		return r, nil
	})
	for i := range results {
		results[i].Job = jobs[i]
		if !ran[i] && err != nil {
			results[i].Err = fmt.Errorf("engine: job %q not run: %w", jobs[i].Label(), err)
		}
	}
	return results, err
}

// Tally is the progress bookkeeping behind Options.OnProgress for a sweep
// of total units starting now: each call of the returned func records one
// finished unit — its simulated cycles, or its failure — and hands the
// updated snapshot to on. The calls may come from any goroutine; on sees
// them one at a time. A nil on makes the returned func a no-op.
func Tally(total int, on func(Progress)) func(cycles int64, err error) {
	if on == nil {
		return func(int64, error) {}
	}
	start := time.Now()
	var mu sync.Mutex
	var done, failed int
	var cycles int64
	return func(c int64, err error) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if err != nil {
			failed++
		} else {
			cycles += c
		}
		p := Progress{
			Done:    done,
			Failed:  failed,
			Total:   total,
			Cycles:  cycles,
			Elapsed: time.Since(start),
		}
		if secs := p.Elapsed.Seconds(); secs > 0 {
			p.CyclesPerSec = float64(cycles) / secs
		}
		if done < total {
			p.ETA = time.Duration(float64(p.Elapsed) / float64(done) * float64(total-done))
		}
		on(p)
	}
}

// runJob executes one job, converting panics into the job's error. The
// context is threaded into the simulator's run loop, so cancelling a sweep
// stops in-flight simulations, not just undispatched ones.
func runJob(ctx context.Context, j Job) (res Result) {
	res.Job = j
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if p := recover(); p != nil {
			res.Err = &PanicError{Label: "job " + j.Label(), Value: p, Stack: debug.Stack()}
		}
	}()
	if len(j.Kernels) == 0 {
		res.Err = fmt.Errorf("engine: job %q has no kernels", j.Label())
		return res
	}
	sim, err := gpu.New(j.Config, j.Kernels, j.Options)
	if err != nil {
		res.Err = err
		return res
	}
	res.Stats, _, res.Err = sim.RunContext(ctx)
	return res
}

// Map runs fn over items on a worker pool of the given size (normalised by
// Workers) and returns the outputs in item order. Unlike Run, an error from
// fn is a sweep failure: Map still finishes the items already dispatched,
// then returns the error of the lowest-index failed item (deterministic
// regardless of completion order). A panic inside fn is converted to a
// *PanicError for that item. When ctx is cancelled, undispatched items are
// skipped and the context error is returned if no item error precedes it.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(context.Context, int, T) (R, error)) ([]R, error) {
	n := Workers(workers)
	if n > len(items) {
		n = len(items)
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range items {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = call(ctx, i, items[i], fn)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, ctx.Err()
}

// call invokes fn with panic recovery.
func call[T, R any](ctx context.Context, i int, item T, fn func(context.Context, int, T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Label: fmt.Sprintf("item %d", i), Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, item)
}
