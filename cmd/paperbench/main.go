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
// -csv DIR also writes the raw data behind the selected experiments (see
// the experiments table; the tables and fig8 have none and say so). An
// unknown -exp name exits 2 and lists the valid ones.
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
	"io"
	"os"
	"path/filepath"
	"strings"

	"gpuscale"
	"gpuscale/cmd/internal/cliutil"
	"gpuscale/internal/engine"
	"gpuscale/internal/harness"
	"gpuscale/internal/workloads"
)

// experiment is one -exp value: the figure or table it prints, and the CSV
// files holding its raw data (none for the configuration tables and fig8).
type experiment struct {
	name string
	run  func(*harness.Harness) error
	csv  []csvFile
}

// csvFile is one exported file: the sweep behind it and its row writer.
type csvFile struct {
	name  string
	sweep sweep
	write func(io.Writer, []*harness.Result) error
}

// sweep is a harness entry point returning one study result per benchmark.
type sweep func(*harness.Harness) ([]*harness.Result, error)

var (
	strongAll  sweep = (*harness.Harness).RunStrongAll
	weakAll    sweep = (*harness.Harness).RunWeakAll
	chipletAll sweep = (*harness.Harness).RunChipletAll
)

// show prints what render makes of s's results.
func show(s sweep, render func([]*harness.Result) string) func(*harness.Harness) error {
	return func(h *harness.Harness) error {
		results, err := s(h)
		if err == nil {
			fmt.Print(render(results))
		}
		return err
	}
}

var (
	strongCSV = []csvFile{
		{"strong_scaling.csv", strongAll, harness.WriteStrongCSV},
		{"miss_rate_curves.csv", strongAll, harness.WriteMissCurvesCSV},
	}
	weakCSV = []csvFile{{"weak_scaling.csv", weakAll, harness.WriteWeakCSV}}
	altCSV  = []csvFile{{"strong_alt_scaling.csv", strongAlt, harness.WriteStrongCSV}}
)

// experiments lists every -exp value in the order "-exp all" runs them.
var experiments = []experiment{
	{"table1", table1, nil},
	{"fig1", fig1, strongCSV},
	{"fig2", fig2, strongCSV},
	{"table2", table2, nil},
	{"table3", table3, nil},
	{"fig4a", show(strongAll, func(rs []*harness.Result) string { return harness.RenderErrorTable(rs, 128) }), strongCSV},
	{"fig4b", show(strongAll, func(rs []*harness.Result) string { return harness.RenderErrorTable(rs, 64) }), strongCSV},
	{"fig5", fig5, strongCSV},
	{"table4", table4, nil},
	{"fig6", show(weakAll, harness.RenderWeakErrorTable), weakCSV},
	{"fig7", show(weakAll, harness.RenderSpeedupTable), weakCSV},
	{"table5", table5, nil},
	{"fig8", show(chipletAll, harness.RenderChipletTable), nil},
	{"artifact", artifact, altCSV},
}

// selectExperiments returns the experiments name selects: one, or all of
// them for "all".
func selectExperiments(name string) ([]experiment, error) {
	if name == "all" {
		return experiments, nil
	}
	names := make([]string, len(experiments))
	for i, e := range experiments {
		if e.name == name {
			return experiments[i : i+1], nil
		}
		names[i] = e.name
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", name, strings.Join(names, ", "))
}

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
	selected, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(2)
	}
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
	for _, e := range selected {
		fmt.Printf("\n================ %s ================\n", e.name)
		if err := e.run(h); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	if *csvDir != "" {
		if err := exportCSV(h, *csvDir, selected, os.Stderr); err != nil {
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

// exportCSV writes each CSV file behind the selected experiments into dir
// once, and says on stderr which experiments have no CSV data.
func exportCSV(h *harness.Harness, dir string, selected []experiment, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := make(map[string]bool)
	for _, e := range selected {
		if e.csv == nil {
			fmt.Fprintf(stderr, "paperbench: %s has no CSV data\n", e.name)
		}
		for _, c := range e.csv {
			if written[c.name] {
				continue
			}
			written[c.name] = true
			results, err := c.sweep(h)
			if err != nil {
				return err
			}
			path := filepath.Join(dir, c.name)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = c.write(f, results)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	return nil
}

// strongOf runs the strong-scaling study of each named benchmark as one
// pre-warmed sweep.
func strongOf(h *harness.Harness, names ...string) ([]*harness.Result, error) {
	bs := make([]workloads.Benchmark, len(names))
	for i, name := range names {
		var err error
		if bs[i], err = workloads.ByName(name); err != nil {
			return nil, err
		}
	}
	return h.RunStrongOf(false, bs...)
}

// strongAlt runs the artifact appendix's 16/32-SM study on every Table II
// benchmark as one pre-warmed sweep.
func strongAlt(h *harness.Harness) ([]*harness.Result, error) {
	return h.RunStrongOf(true, gpuscale.Benchmarks()...)
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
	results, err := strongOf(h, "dct", "bfs", "pf")
	if err != nil {
		return err
	}
	fmt.Println("Performance vs system size under strong scaling (Figure 1)")
	for _, r := range results {
		fmt.Printf("\n%s (%s):\n  SMs   IPC      linear-scaling reference\n", r.Name, r.Class)
		ref := r.Real[8].IPC / 8
		for _, n := range r.Sizes {
			fmt.Printf("  %-5d %-8.1f %.1f\n", n, r.Real[n].IPC, ref*float64(n))
		}
	}
	return nil
}

func fig2(h *harness.Harness) error {
	results, err := strongOf(h, "dct", "bfs", "pf")
	if err != nil {
		return err
	}
	fmt.Println("Miss-rate curves (Figure 2)")
	for _, r := range results {
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

func fig5(h *harness.Harness) error {
	results, err := strongOf(h, "dct", "fwt", "as", "lu", "bfs", "gr", "sr", "btree", "pf", "ht", "at", "gemm")
	if err != nil {
		return err
	}
	fmt.Println("Predicted vs real IPC for select benchmarks (Figure 5)")
	for _, r := range results {
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

func artifact(h *harness.Harness) error {
	fmt.Println("Alternate scale models: 16+32 SMs predicting 64/128 SMs (artifact appendix E.2)")
	results, err := strongAlt(h)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderErrorTable(results, 128))
	fmt.Println()
	fmt.Print(harness.RenderErrorTable(results, 64))
	return nil
}
