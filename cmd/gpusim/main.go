// Command gpusim runs one GPU timing simulation: a benchmark from the
// paper's suite on a chosen system size, printing the statistics the
// scale-model methodology consumes (IPC, f_mem, MPKI, utilisations).
//
// Usage:
//
//	gpusim -bench dct -sms 16
//	gpusim -bench bfs -weak -sms 32
//	gpusim -bench va -weak -chiplets 8
//	gpusim -bench dct -sms 16 -trace-out dct.trace.json -metrics-out dct.json
//	gpusim -bench dct -sms 16 -tier analytic
//	gpusim -list
//
// The flags assemble a canonical service request (gpuscale.Request — the
// same wire schema cmd/predict and the gpuscaled daemon speak), so every
// run prints its canonical request hash: POSTing the equivalent JSON to a
// daemon's /v1/simulate returns the same simulation from the same cache
// key. Host-side execution knobs (-shards, -tier, observability,
// profiling) are not part of the canonical request and never change the
// hash.
//
// -tier analytic answers from the microsecond-scale analytical model
// (docs/ANALYTIC.md) instead of simulating; -tier auto does the same but
// falls back to the cycle simulator when the model's confidence is below
// gpuscale.DefaultConfidenceThreshold.
//
// The observability flags are shared with paperbench (see cmd/internal/
// cliutil): -trace-out writes a Chrome trace_event file loadable in
// chrome://tracing or https://ui.perfetto.dev (a .jsonl extension selects
// JSON Lines), -metrics-out dumps the per-component metrics registry and
// interval samples as JSON, and -sample-every tunes the sampling cadence in
// simulated cycles. -quiet suppresses the statistics block, which is useful
// when only the observability outputs are wanted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gpuscale"
	"gpuscale/cmd/internal/cliutil"
)

func main() {
	var (
		bench    = flag.String("bench", "", "benchmark abbreviation (see -list)")
		sms      = flag.Int("sms", 16, "number of SMs (monolithic GPU)")
		chiplets = flag.Int("chiplets", 0, "simulate an MCM GPU with this many chiplets instead")
		shards   = flag.Int("shards", 0, "run the simulation on this many parallel shard goroutines (bit-identical results; 0/1 = sequential). For the speedup to expect, see docs/PARALLELISM.md \"Performance expectations\"")
		weak     = flag.Bool("weak", false, "use the weak-scaling variant (input scales with size)")
		uarchStr = flag.String("uarch", "", "microarchitecture variant, e.g. \"two-level,sectored,deflect,iw=2\" (empty = Table III baseline; part of the request hash)")
		tier     = flag.String("tier", "cycle", "latency tier: cycle simulates; analytic answers from the microsecond model; auto answers analytically unless confidence is low")
		warmup   = flag.Uint64("warmup", 0, "discard statistics until this many instructions have issued (monolithic GPU only)")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
		quiet    = cliutil.Quiet(flag.CommandLine)
		obsFlags = cliutil.Obs(flag.CommandLine)
		prof     = cliutil.Profile(flag.CommandLine)
	)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *list {
		fmt.Println("strong-scaling benchmarks (Table II):")
		for _, b := range gpuscale.Benchmarks() {
			fmt.Printf("  %-6s %-28s %-9s %s\n", b.Name, b.FullName, b.Suite, b.Class)
		}
		fmt.Println("weak-scaling families (Table IV):")
		for _, w := range gpuscale.WeakBenchmarks() {
			fmt.Printf("  %-6s %s\n", w.Name, w.Class)
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "gpusim: -bench is required (try -list)")
		os.Exit(2)
	}

	req := gpuscale.Request{
		Op:       gpuscale.OpSimulate,
		Workload: gpuscale.WorkloadSpec{Bench: *bench, Weak: *weak},
		Options: gpuscale.RequestOptions{
			WarmupInstructions: *warmup,
			Shards:             *shards,
		},
	}
	if *uarchStr != "" {
		v, err := gpuscale.ParseUarch(*uarchStr)
		if err != nil {
			fatal(err)
		}
		req.Options.Uarch = &v
	}
	if *chiplets > 0 {
		req.Target.Chiplets = *chiplets
	} else {
		req.Target.SMs = *sms
	}
	_, hash, err := gpuscale.Canonicalize(req)
	if err != nil {
		fatal(err)
	}
	tgt, err := req.ResolveSimulation()
	if err != nil {
		fatal(err)
	}

	// The tier is a host-side knob like -shards: it selects how this
	// process produces the numbers and is not part of the canonical
	// request (simulate requests have no wire tier — only predict does).
	switch *tier {
	case "", gpuscale.TierCycle:
	case gpuscale.TierAnalytic, gpuscale.TierAuto:
		var est gpuscale.AnalyticEstimate
		if tgt.MCM != nil {
			mcm := *tgt.MCM
			if req.Options.Uarch != nil {
				// The resolved target threads the variant through simulation
				// options; the analytic model reads it from the config, so the
				// structural confidence discount needs it there too.
				mcm.Chiplet.Uarch = *req.Options.Uarch
			}
			est, err = gpuscale.AnalyzeMCMCell(mcm, tgt.Workload)
		} else {
			sys := *tgt.System
			if req.Options.Uarch != nil {
				sys.Uarch = *req.Options.Uarch
			}
			est, err = gpuscale.AnalyzeCell(sys, tgt.Workload)
		}
		if err != nil {
			fatal(err)
		}
		if *tier == gpuscale.TierAnalytic || est.Confidence >= gpuscale.DefaultConfidenceThreshold {
			if !*quiet {
				printAnalytic(tgt, hash, est)
			}
			return
		}
		if !*quiet {
			fmt.Printf("analytic confidence %.2f below %.2f; escalating to the cycle simulator\n",
				est.Confidence, gpuscale.DefaultConfidenceThreshold)
		}
	default:
		fatal(fmt.Errorf("unknown tier %q (want cycle, analytic or auto)", *tier))
	}

	ctx := context.Background()
	observer := obsFlags.Observer()
	opts := append(tgt.Options,
		gpuscale.WithObserver(observer),
		gpuscale.WithSampleInterval(obsFlags.SampleEvery),
	)

	if tgt.MCM != nil {
		st, err := gpuscale.SimulateMCMContext(ctx, *tgt.MCM, tgt.Workload, opts...)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("config:        %s (%d SMs total)\n", tgt.MCM.Name, tgt.MCM.TotalSMs())
			fmt.Printf("workload:      %s\n", tgt.Workload.Name())
			fmt.Printf("request:       %s\n", hash)
			fmt.Printf("cycles:        %d\n", st.Cycles)
			fmt.Printf("instructions:  %d\n", st.Instructions)
			fmt.Printf("IPC:           %.2f\n", st.IPC)
			fmt.Printf("f_mem:         %.3f\n", st.FMem)
			fmt.Printf("LLC MPKI:      %.2f\n", st.LLCMPKI)
			fmt.Printf("remote frac:   %.3f\n", st.RemoteFraction)
			fmt.Printf("CTAs:          %d\n", st.CTAs)
		}
		if err := obsFlags.WriteOutputs(observer); err != nil {
			fatal(err)
		}
		return
	}

	cfg := *tgt.System
	st, err := gpuscale.SimulateContext(ctx, cfg, tgt.Workload, opts...)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("config:        %s\n", cfg.Name)
		fmt.Printf("workload:      %s\n", tgt.Workload.Name())
		fmt.Printf("request:       %s\n", hash)
		fmt.Printf("cycles:        %d\n", st.Cycles)
		fmt.Printf("instructions:  %d\n", st.Instructions)
		fmt.Printf("IPC:           %.2f  (%.3f per SM)\n", st.IPC, st.IPC/float64(cfg.NumSMs))
		fmt.Printf("f_mem:         %.3f\n", st.FMem)
		fmt.Printf("L1 miss rate:  %.3f  (%d misses / %d accesses)\n", st.L1MissRate, st.L1Misses, st.L1Accesses)
		fmt.Printf("LLC MPKI:      %.2f  (%d misses / %d accesses)\n", st.LLCMPKI, st.LLCMisses, st.LLCAccesses)
		fmt.Printf("avg load lat:  %.0f cycles\n", st.AvgLoadLatency)
		fmt.Printf("NoC util:      %.2f  (%d bytes)\n", st.NoCUtilization, st.NoCBytes)
		fmt.Printf("DRAM util:     %.2f  (%d bytes)\n", st.DRAMUtilization, st.DRAMBytes)
		fmt.Printf("CTAs:          %d\n", st.CTAs)
	}
	if err := obsFlags.WriteOutputs(observer); err != nil {
		fatal(err)
	}
}

// printAnalytic renders an analytic-tier estimate in the same layout as
// the simulated statistics block.
func printAnalytic(tgt gpuscale.SimTarget, hash string, est gpuscale.AnalyticEstimate) {
	if tgt.MCM != nil {
		fmt.Printf("config:        %s (%d SMs total)\n", tgt.MCM.Name, tgt.MCM.TotalSMs())
	} else {
		fmt.Printf("config:        %s\n", tgt.System.Name)
	}
	fmt.Printf("workload:      %s\n", tgt.Workload.Name())
	fmt.Printf("request:       %s\n", hash)
	fmt.Printf("tier:          analytic (confidence %.2f)\n", est.Confidence)
	fmt.Printf("cycles:        %.0f (estimated)\n", est.Cycles)
	fmt.Printf("instructions:  %.0f\n", est.Instructions)
	fmt.Printf("IPC:           %.2f\n", est.IPC)
	fmt.Printf("f_mem:         %.3f\n", est.FMem)
	fmt.Printf("LLC MPKI:      %.2f\n", est.LLCMPKI)
	if tgt.MCM != nil {
		fmt.Printf("remote frac:   %.3f\n", est.RemoteFraction)
	} else {
		fmt.Printf("L1 miss rate:  %.3f\n", est.L1MissRate)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
