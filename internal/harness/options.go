package harness

import (
	"runtime"

	"gpuscale/internal/engine"
	"gpuscale/internal/obs"
	"gpuscale/internal/uarch"
)

// Option configures a Harness at construction time: a harness is
// configured once at New and then only read, which keeps the sweep entry
// points free of read-modify-write races and makes a harness's behaviour a
// function of its constructor call. Option bodies assign fields directly
// and take no locks — New applies them before the harness is shared.
type Option func(*Harness)

// WithParallel sets the worker-pool size used by the sweep entry points
// (RunStrongAll, RunWeakAll, RunChipletAll). n <= 1 disables the parallel
// pre-warm and restores fully sequential execution; n <= 0 selects
// runtime.NumCPU(), which is also the default. Results are identical at
// every setting — only wall clock changes.
func WithParallel(n int) Option {
	return func(h *Harness) {
		if n <= 0 {
			n = runtime.NumCPU()
		}
		h.parallel = n
	}
}

// WithProgress attaches a callback that receives a progress snapshot after
// every pre-warm job completion (jobs done, simulated cycles/sec, ETA).
// nil detaches (the default). The callback is never invoked concurrently.
func WithProgress(fn func(engine.Progress)) Option {
	return func(h *Harness) {
		h.progress = fn
	}
}

// WithObserver attaches an observability recorder to every simulation the
// harness runs. The recorder is safe to share across the parallel
// pre-warm: each simulation records into its own trace stream and metrics
// namespace. nil detaches (the default).
func WithObserver(rec *obs.Recorder) Option {
	return func(h *Harness) {
		h.observer = rec
	}
}

// WithShards sets the intra-simulation shard count for every simulation
// the harness runs — SM groups on the monolithic simulator
// (gpu.Options.Shards), chiplet groups on the MCM simulator
// (chiplet.Options.Shards). Sharded runs are bit-identical to sequential
// ones, so memo keys stay valid at every setting — only wall clock
// differs. n <= 1 keeps the sequential event loops; negative n is treated
// as 0. WithMCMShards, when also set, overrides this count for MCM runs.
func WithShards(n int) Option {
	return func(h *Harness) {
		if n < 0 {
			n = 0
		}
		h.shards = n
	}
}

// WithUarch sets the microarchitecture variant every harness simulation
// runs under (gpu.Options.Uarch / chiplet.Options.Uarch). Unlike the
// sharding knobs, a variant CHANGES simulated timing, so results from
// differently-configured harnesses must never be compared as if
// equivalent. The memo key is (config, workload) name only — a harness is
// therefore fixed to one variant for its lifetime (paperbench runs one
// variant per process); do not reconfigure a harness that has cached runs.
func WithUarch(v uarch.Variant) Option {
	return func(h *Harness) {
		h.uarch = v
	}
}

// WithMCMShards sets the intra-simulation shard count for MCM simulations
// only (see chiplet.Options.Shards), overriding WithShards for those runs.
// Sharded runs are bit-identical to sequential ones, so memo keys stay
// valid at every setting — only wall clock differs. n <= 1 keeps the
// sequential event loop (unless WithShards set a count); negative n is
// treated as 0.
func WithMCMShards(n int) Option {
	return func(h *Harness) {
		if n < 0 {
			n = 0
		}
		h.mcmShards = n
	}
}
