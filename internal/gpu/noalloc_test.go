package gpu

import (
	"context"
	"testing"

	"gpuscale/internal/trace"
)

// prebuiltWorkload is a memory-bound stream workload whose NewProgram is
// allocation-free: every warp program is built up front and the factory
// just hands them out. The simulator's launch path is specified to allocate
// nothing beyond the workload's own NewProgram (see fillCTAs), so running
// this workload measures the simulator's allocations alone.
func prebuiltWorkload(ctas, warpsPerCTA, loads int) trace.Workload {
	progs := make([]trace.Program, ctas*warpsPerCTA)
	for cta := 0; cta < ctas; cta++ {
		for w := 0; w < warpsPerCTA; w++ {
			base := uint64(cta*warpsPerCTA+w) * uint64(loads) * 128
			g := &trace.SeqGen{Base: base, Stride: 128, Extent: 1 << 40}
			progs[cta*warpsPerCTA+w] = trace.NewPhaseProgram(trace.Phase{N: loads, Gen: g})
		}
	}
	return &trace.FuncWorkload{
		WName: "prebuilt-stream",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warpsPerCTA},
		Factory: func(cta, warp int) trace.Program {
			return progs[cta*warpsPerCTA+warp]
		},
	}
}

// arenaFactoryWorkload is a memory-bound workload in the idiom of the
// workloads package: its FactoryIn draws the phase buffer and address
// generators from the simulation's arena on every launch, and one generator
// serves two phases of the same program (the camping shape), so retiring a
// warp exercises the arena's dedup-and-pool path. After the first wave has
// been launched and released, every subsequent CTA launch must be served
// entirely from the arena pools.
func arenaFactoryWorkload(ctas, warpsPerCTA, loads int) trace.Workload {
	return &trace.FuncWorkload{
		WName: "arena-stream",
		Spec:  trace.KernelSpec{NumCTAs: ctas, WarpsPerCTA: warpsPerCTA},
		FactoryIn: func(a *trace.Arena, cta, warp int) trace.Program {
			id := uint64(cta*warpsPerCTA + warp)
			stream := a.Seq(id*uint64(loads)*128, 0, 128, 1<<40)
			hot := a.Rand(1<<50, 128, 16*128, trace.WarpSeed(7, cta, warp))
			ph := a.Phases(3)
			ph = append(ph,
				trace.Phase{N: loads / 2, Gen: stream},
				trace.Phase{N: 4, ComputePer: 1, Gen: hot},
				trace.Phase{N: loads - loads/2, Gen: stream},
			)
			return a.NewProgram(ph)
		},
	}
}

// TestSteadyStateNoAllocs pins the allocation-free steady state of the run
// loops on the no-observer path, on a GPU and on a package (first-touch page
// lookups included). Every simulator is pre-warmed by a first RunContext
// that aborts at MaxCycles — by then each pool, heap, bitset and scratch
// buffer has been sized, and for the arena-factory workload the arena pools
// hold a full resident population of released programs — and the measured
// run resumes it to completion. The remaining kernel work (warp ticks, CTA
// launches through the workload factory, MSHR and cache traffic, event-skip
// bookkeeping, final statistics) must not allocate a single byte.
// AllocsPerRun is unreliable under the race detector, so `make race` runs
// this via the separate noalloc target.
func TestSteadyStateNoAllocs(t *testing.T) {
	workloads := []struct {
		name  string
		build func() trace.Workload
	}{
		{"prebuilt", func() trace.Workload { return prebuiltWorkload(64, 4, 50) }},
		{"arena-factory", func() trace.Workload { return arenaFactoryWorkload(64, 4, 50) }},
	}
	cells := func(t *testing.T, m machine) {
		for _, loop := range []struct {
			name string
			opt  Options
		}{
			{"event", Options{MaxCycles: 500}},
			{"legacy", Options{MaxCycles: 500, UseLegacyLoop: true}},
		} {
			for _, wl := range workloads {
				t.Run(loop.name+"/"+wl.name, func(t *testing.T) {
					const runs = 3
					// AllocsPerRun invokes the function runs+1 times (one
					// unmeasured warm-up call), and each invocation consumes
					// one simulator.
					sims := make([]*Simulator, 0, runs+1)
					for len(sims) <= runs {
						s, err := m.build(loop.opt, wl.build())
						if err != nil {
							t.Fatal(err)
						}
						if _, _, err := s.RunContext(context.Background()); err == nil {
							t.Fatal("warm-up run completed before MaxCycles; grow the workload")
						}
						s.opt.MaxCycles = 0
						sims = append(sims, s)
					}
					ctx := context.Background()
					var runErr error
					i := 0
					n := testing.AllocsPerRun(runs, func() {
						if _, _, err := sims[i].RunContext(ctx); err != nil && runErr == nil {
							runErr = err
						}
						i++
					})
					if runErr != nil {
						t.Fatal(runErr)
					}
					if n != 0 {
						t.Fatalf("steady-state simulation allocated %.1f times per run, want 0", n)
					}
				})
			}
		}
	}
	cells(t, mono(testConfig(8)))
	t.Run("mcm", func(t *testing.T) { cells(t, mcm(smallMCM(2, 4))) })
}
