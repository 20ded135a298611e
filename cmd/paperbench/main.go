// Command paperbench regenerates the paper's tables and figures end to end
// on this repo's simulator. Each experiment maps to one flag value; see
// DESIGN.md for the experiment index.
//
// Usage:
//
//	paperbench -exp table1          # scale-model configurations
//	paperbench -exp fig1            # scaling behaviour (dct, bfs, pf)
//	paperbench -exp fig2            # miss-rate curves (dct, bfs, pf)
//	paperbench -exp table2          # workload characteristics
//	paperbench -exp table3          # 128-SM baseline
//	paperbench -exp fig4a|fig4b     # strong-scaling prediction error
//	paperbench -exp fig5            # predicted-vs-real scaling curves
//	paperbench -exp table4          # weak-scaling configurations
//	paperbench -exp fig6            # weak-scaling prediction error
//	paperbench -exp fig7            # weak-scaling simulation speedup
//	paperbench -exp table5          # 16-chiplet target configuration
//	paperbench -exp fig8            # multi-chiplet prediction error
//	paperbench -exp artifact        # alternate 16/32-SM scale models
//	paperbench -exp all             # everything (slow: full sweeps)
//	paperbench -exp all -parallel 8 # fan the simulation grid over 8 cores
//
// Heavy experiments share one in-process cache, so "-exp all" costs little
// more than the union of its parts. The sweeps behind the heavy experiments
// fan their independent (workload, configuration) cells across -parallel
// workers (default: all CPUs); results are bit-identical at any setting,
// and live progress (jobs done, simulated cycles/sec, ETA) is reported on
// stderr. -shards parallelises *within* each simulation instead (per-SM-
// group shard runners on the monolithic simulator, per-chiplet-group on
// the MCM one, see docs/PARALLELISM.md) — bit-identical at any setting and
// composable with -parallel, but it pays only at target sizes (>= 64 SMs
// per shard) and slows the 8/16-SM scale models down, which -parallel
// already covers.
//
// The shared observability flags (see cmd/internal/cliutil) attach one
// recorder to every simulation the selected experiments run: -trace-out
// writes a Chrome trace_event file with one named stream per (config,
// workload) pair, -metrics-out dumps the metrics registry, and
// -sample-every tunes the sampling cadence. Memoisation means a simulation
// appears in the trace only the first time an experiment needs it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gpuscale"
	"gpuscale/cmd/internal/cliutil"
	"gpuscale/internal/engine"
	"gpuscale/internal/harness"
	"gpuscale/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate (table1..table5, fig1..fig8, artifact, all)")
	csvDir := flag.String("csv", "", "also export raw results as CSV files into this directory")
	shards := flag.Int("shards", 0, "run each simulation on this many parallel shard goroutines (bit-identical results; 0/1 = sequential). For the speedup to expect, see docs/PARALLELISM.md \"Performance expectations\"; use -parallel for scale models")
	uarchStr := flag.String("uarch", "", "regenerate everything under this microarchitecture variant, e.g. \"two-level,sectored,deflect,iw=2\" (empty = Table III baseline; CHANGES results)")
	parallel := cliutil.Parallel(flag.CommandLine)
	quiet := cliutil.Quiet(flag.CommandLine)
	obsFlags := cliutil.Obs(flag.CommandLine)
	prof := cliutil.Profile(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
	defer stopProf()
	observer := obsFlags.Observer()
	hopts := []harness.Option{
		harness.WithParallel(*parallel),
		harness.WithShards(*shards),
		harness.WithObserver(observer),
	}
	if *uarchStr != "" {
		v, err := gpuscale.ParseUarch(*uarchStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(2)
		}
		// One variant per process: the harness memoises by (config,
		// workload) name, so the variant is fixed at construction.
		hopts = append(hopts, harness.WithUarch(v))
	}
	if !*quiet {
		hopts = append(hopts, harness.WithProgress(progressLine))
	}
	h := harness.New(hopts...)
	run := func(name string, f func(*harness.Harness) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n================ %s ================\n", name)
		if err := f(h); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("table1", table1)
	run("fig1", fig1)
	run("fig2", fig2)
	run("table2", table2)
	run("table3", table3)
	run("fig4a", func(h *harness.Harness) error { return fig4(h, 128) })
	run("fig4b", func(h *harness.Harness) error { return fig4(h, 64) })
	run("fig5", fig5)
	run("table4", table4)
	run("fig6", fig6)
	run("fig7", fig7)
	run("table5", table5)
	run("fig8", fig8)
	run("artifact", artifact)
	if *csvDir != "" {
		if err := exportCSV(h, *csvDir, *exp); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: csv export:", err)
			os.Exit(1)
		}
	}
	if err := obsFlags.WriteOutputs(observer); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// progressLine renders sweep progress as a carriage-return-overwritten
// stderr line, finishing with a newline so the experiment output that
// follows starts clean.
func progressLine(p engine.Progress) {
	fmt.Fprintf(os.Stderr, "\r[%d/%d] %.1fM simulated cycles/s, ETA %v    ",
		p.Done, p.Total, p.CyclesPerSec/1e6, p.ETA.Round(1e9))
	if p.Done == p.Total {
		fmt.Fprintln(os.Stderr)
	}
}

// exportCSV writes the raw strong/weak results behind the requested
// experiments as CSV files for external plotting.
func exportCSV(h *harness.Harness, dir, exp string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(*os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(dir, name))
		return nil
	}
	wantStrong := exp == "all" || exp == "fig4a" || exp == "fig4b" || exp == "fig5" || exp == "fig2"
	wantWeak := exp == "all" || exp == "fig6" || exp == "fig7"
	if wantStrong {
		results, err := h.RunStrongAll()
		if err != nil {
			return err
		}
		if err := write("strong_scaling.csv", func(f *os.File) error {
			return harness.WriteStrongCSV(f, results)
		}); err != nil {
			return err
		}
		if err := write("miss_rate_curves.csv", func(f *os.File) error {
			return harness.WriteMissCurvesCSV(f, results)
		}); err != nil {
			return err
		}
	}
	if wantWeak {
		results, err := h.RunWeakAll()
		if err != nil {
			return err
		}
		if err := write("weak_scaling.csv", func(f *os.File) error {
			return harness.WriteWeakCSV(f, results)
		}); err != nil {
			return err
		}
	}
	return nil
}

func table1(h *harness.Harness) error {
	fmt.Println("Scale models via proportional resource scaling (Table I)")
	headers := []string{"#SMs", "LLC", "slices", "NoC bisection", "mem BW", "MCs"}
	var rows [][]string
	cfgs := gpuscale.StandardConfigs()
	for i := len(cfgs) - 1; i >= 0; i-- {
		c := cfgs[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.NumSMs),
			fmt.Sprintf("%.3f MiB", float64(c.LLCSizeBytes)/(1<<20)),
			fmt.Sprintf("%d", c.LLCSlices),
			fmt.Sprintf("%.1f GB/s", c.NoCBisectionGBps),
			fmt.Sprintf("%.1f GB/s", c.TotalMemBWGBps()),
			fmt.Sprintf("%d", c.MemControllers),
		})
	}
	fmt.Print(harness.RenderTable(headers, rows))
	return nil
}

func fig1(h *harness.Harness) error {
	fmt.Println("Performance vs system size under strong scaling (Figure 1)")
	for _, name := range []string{"dct", "bfs", "pf"} {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		r, err := h.RunStrong(b)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s (%s):\n  SMs   IPC      linear-scaling reference\n", b.Name, b.Class)
		ref := r.Real[8].IPC / 8
		for _, n := range r.Sizes {
			fmt.Printf("  %-5d %-8.1f %.1f\n", n, r.Real[n].IPC, ref*float64(n))
		}
	}
	return nil
}

func fig2(h *harness.Harness) error {
	fmt.Println("Miss-rate curves (Figure 2)")
	for _, name := range []string{"dct", "bfs", "pf"} {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		r, err := h.RunStrong(b)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(harness.RenderMissRateCurve(r))
	}
	return nil
}

func table2(h *harness.Harness) error {
	fmt.Println("Strong-scaling benchmarks (Table II)")
	headers := []string{"bench", "full name", "suite", "CTA sizes", "paper MB", "paper Minsns", "class"}
	var rows [][]string
	for _, b := range gpuscale.Benchmarks() {
		rows = append(rows, []string{
			b.Name, b.FullName, b.Suite, b.PaperCTASizes,
			fmt.Sprintf("%.1f", b.PaperFootprintMB),
			fmt.Sprintf("%.0f", b.PaperInsnsM),
			string(b.Class),
		})
	}
	fmt.Print(harness.RenderTable(headers, rows))
	return nil
}

func table3(h *harness.Harness) error {
	c := gpuscale.Baseline128()
	fmt.Println("Baseline 128-SM target system (Table III)")
	fmt.Printf("  SM clock:        %.1f GHz\n", c.ClockGHz)
	fmt.Printf("  threads per SM:  %d warps x %d threads = %d\n",
		c.WarpsPerSM, c.ThreadsPerWarp, c.MaxThreadsPerSM())
	fmt.Printf("  L1 per SM:       %d KB, %d-way, %d MSHRs\n",
		c.L1SizeBytes/1024, c.L1Ways, c.L1MSHRs)
	fmt.Printf("  LLC:             %.0f MB total, %d slices, %d-way\n",
		float64(c.LLCSizeBytes)/(1<<20), c.LLCSlices, c.LLCWays)
	fmt.Printf("  DRAM bandwidth:  %.2f TB/s (%d MCs)\n", c.TotalMemBWGBps()/1000, c.MemControllers)
	fmt.Printf("  NoC:             crossbar, %.1f TB/s bisection\n", c.NoCBisectionGBps/1000)
	return nil
}

func fig4(h *harness.Harness, target int) error {
	results, err := h.RunStrongAll()
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderErrorTable(results, target))
	return nil
}

func fig5(h *harness.Harness) error {
	fmt.Println("Predicted vs real IPC for select benchmarks (Figure 5)")
	for _, name := range []string{"dct", "fwt", "as", "lu", "bfs", "gr", "sr", "btree", "pf", "ht", "at", "gemm"} {
		b, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		r, err := h.RunStrong(b)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(harness.RenderScalingCurves(r))
	}
	return nil
}

func table4(h *harness.Harness) error {
	fmt.Println("Weak-scaling configurations (Table IV)")
	headers := []string{"bench", "class", "MCM", "CTAs@8SM", "CTAs@128SM"}
	var rows [][]string
	for _, wb := range gpuscale.WeakBenchmarks() {
		mcm := ""
		if wb.MCM {
			mcm = "yes"
		}
		rows = append(rows, []string{
			wb.Name, string(wb.Class), mcm,
			fmt.Sprintf("%d", wb.CTAsAt(8)),
			fmt.Sprintf("%d", wb.CTAsAt(128)),
		})
	}
	fmt.Print(harness.RenderTable(headers, rows))
	return nil
}

func fig6(h *harness.Harness) error {
	results, err := h.RunWeakAll()
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderWeakErrorTable(results))
	return nil
}

func fig7(h *harness.Harness) error {
	results, err := h.RunWeakAll()
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderSpeedupTable(results))
	return nil
}

func table5(h *harness.Harness) error {
	c := gpuscale.Target16Chiplet()
	fmt.Println("Simulated 16-chiplet target system (Table V)")
	fmt.Printf("  SMs/chiplet:       %d (%d total)\n", c.Chiplet.NumSMs, c.TotalSMs())
	fmt.Printf("  SM clock:          %.1f GHz\n", c.Chiplet.ClockGHz)
	fmt.Printf("  LLC:               %.0f MB per chiplet, %d slices\n",
		float64(c.Chiplet.LLCSizeBytes)/(1<<20), c.Chiplet.LLCSlices)
	fmt.Printf("  intra-chiplet NoC: %.1f TB/s crossbar\n", c.Chiplet.NoCBisectionGBps/1000)
	fmt.Printf("  inter-chiplet NoC: %.0f GB/s per chiplet\n", c.InterChipletGBpsPerChiplet)
	fmt.Printf("  memory:            %d MCs, %.1f TB/s per chiplet\n",
		c.Chiplet.MemControllers, c.Chiplet.TotalMemBWGBps()/1000)
	fmt.Printf("  page allocation:   first-touch, %d KB pages\n", c.PageSize/1024)
	fmt.Printf("  CTA scheduling:    distributed\n")
	return nil
}

func fig8(h *harness.Harness) error {
	results, err := h.RunChipletAll()
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderChipletTable(results))
	return nil
}

func artifact(h *harness.Harness) error {
	fmt.Println("Alternate scale models: 16+32 SMs predicting 64/128 SMs (artifact appendix E.2)")
	var results []*harness.StrongResult
	for _, b := range gpuscale.Benchmarks() {
		r, err := h.RunStrongAlt(b)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Print(harness.RenderErrorTable(results, 128))
	fmt.Println()
	fmt.Print(harness.RenderErrorTable(results, 64))
	return nil
}
