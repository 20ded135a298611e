// Package engine runs simulation jobs: it is the one place in the program
// that builds and runs a simulator. Every experiment in this repository —
// MRC sweeps, scale-model calibration, the 21-workload × 5-configuration
// grids behind the paper's figures, one request to the daemon — is a list
// of fully independent (workload, configuration) cells, each a Job.
//
//   - Exec runs one job on the caller's goroutine, monolithic GPU or
//     multi-chip module alike, and returns its one Result shape. A
//     diverging or buggy simulation becomes that job's Result.Err (a
//     *PanicError with a stack trace) instead of killing the process, and
//     the job's context is threaded into the simulator's run loop, so
//     cancelling it aborts the run within a few thousand iterations.
//   - Map fans any per-item function across a worker pool with results in
//     input order, regardless of which worker finished first, so a parallel
//     sweep of Exec calls is a drop-in replacement for a sequential loop.
//   - Tally turns finished units into Progress snapshots: jobs done,
//     aggregate simulated cycles per second and an ETA.
//   - An Intake (intake.go) is the admission path of a service: every
//     submission runs Exec on its submitter's goroutine once it holds one
//     of Workers slots, so one setting bounds every simulation the service
//     starts.
//   - A Memo (memo.go) is the program's one single-flight memo, with one
//     policy for concurrent callers, failures and panics.
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

// Job is one unit of work: a kernel sequence to simulate on one machine,
// a monolithic GPU or a multi-chip module. Jobs are values; the engine
// never mutates them.
type Job struct {
	// Name labels the job in results and progress output. If empty, a
	// "config/workload" label is derived.
	Name string
	// Config is the system to simulate on when MCM is nil.
	Config config.SystemConfig
	// MCM, when non-nil, is the multi-chip module to simulate instead of
	// Config (gpu.NewMCM).
	MCM *config.ChipletConfig
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
	name := j.Config.Name
	if j.MCM != nil {
		name = j.MCM.Name
	}
	if len(j.Kernels) > 0 && j.Kernels[0] != nil {
		return name + "/" + j.Kernels[0].Name()
	}
	return name
}

// Result is the outcome of one Job. Err is non-nil when the job failed
// (including a recovered panic) or was cancelled; otherwise Stats is
// meaningful.
type Result struct {
	// Job is the job this result belongs to.
	Job Job
	// Stats is the simulation result when Err is nil, on one memory domain
	// or several.
	Stats gpu.Stats
	// Wall is the host time the job took (zero if never started).
	Wall time.Duration
	// Err is the job's failure, if any.
	Err error
}

// Progress is a snapshot of a running sweep, delivered to a Tally's
// callback after every finished unit.
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

// guard calls fn, turning a panic into a *PanicError labelled label: the
// one place a job, a Map item or a Memo computation is recovered.
func guard[V any](label string, fn func() (V, error)) (v V, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Label: label, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Tally is the progress bookkeeping of a sweep of total units starting
// now: each call of the returned func records one finished unit — its
// simulated cycles, or its failure — and hands the updated snapshot to on. The calls may come from any goroutine; on sees
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

// Exec runs one job to completion on the caller's goroutine, converting a
// panic into the job's error. The context is threaded into the simulator's
// run loop, so cancelling it stops the simulation, not just a job that has
// not started.
func Exec(ctx context.Context, j Job) Result {
	start := time.Now()
	st, err := guard("job "+j.Label(), func() (gpu.Stats, error) {
		var sim *gpu.Simulator
		var err error
		if j.MCM != nil {
			sim, err = gpu.NewMCM(*j.MCM, j.Kernels, j.Options)
		} else {
			sim, err = gpu.New(j.Config, j.Kernels, j.Options)
		}
		if err != nil {
			return gpu.Stats{}, err
		}
		return sim.RunContext(ctx)
	})
	return Result{Job: j, Stats: st, Wall: time.Since(start), Err: err}
}

// Map runs fn over items on a worker pool of the given size (normalised by
// Workers) and returns the outputs in item order. An error from fn is a
// sweep failure: Map still finishes the items already dispatched,
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
			// Checked before the select, which picks arbitrarily between
			// a free worker and a done context.
			if ctx.Err() != nil {
				return
			}
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
				results[i], errs[i] = guard(fmt.Sprintf("item %d", i), func() (R, error) { return fn(ctx, i, items[i]) })
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
