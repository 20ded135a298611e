// Command mrc prints a benchmark's LLC miss-rate curve: misses per thousand
// instructions as a function of LLC capacity across the paper's five system
// configurations (the input to strong-scaling prediction).
//
// Usage:
//
//	mrc -bench dct
//	mrc -bench dct -method stack
//	mrc -bench dct -parallel 1      # replay the five configurations one after another
//	mrc -bench bfs -cpuprofile cpu.prof
//
// The -parallel flag (default: all CPUs) bounds the goroutines replaying
// the functional method's configurations; the curve is identical at any
// setting. The stack method is a single pass by nature and ignores the
// flag. -cpuprofile and -memprofile write pprof profiles of the run
// (`make profile-mrc` prints one for bfs and one for ht).
package main

import (
	"flag"
	"fmt"
	"os"

	"gpuscale"
	"gpuscale/cmd/internal/cliutil"
)

func main() {
	var (
		bench  = flag.String("bench", "", "benchmark abbreviation")
		method = flag.String("method", "functional",
			"curve method: functional (cache sweep, matches the simulator) or stack (single-pass reuse distance, fully associative)")
		parallel = cliutil.Parallel(flag.CommandLine)
		prof     = cliutil.Profile(flag.CommandLine)
	)
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrc:", err)
		os.Exit(1)
	}
	defer stopProf()
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "mrc: -bench is required")
		os.Exit(2)
	}
	b, err := gpuscale.BenchmarkByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrc:", err)
		os.Exit(1)
	}
	cfgs := gpuscale.StandardConfigs()
	var curve gpuscale.Curve
	switch *method {
	case "functional":
		curve, err = gpuscale.MissRateCurveParallel(b.Workload, cfgs, *parallel)
	case "stack":
		caps := make([]int64, len(cfgs))
		for i, c := range cfgs {
			caps[i] = c.LLCSizeBytes
		}
		curve, err = gpuscale.StackDistanceCurve(b.Workload, cfgs[0].LineSize, caps)
	default:
		fmt.Fprintf(os.Stderr, "mrc: unknown method %q\n", *method)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrc:", err)
		os.Exit(1)
	}
	fmt.Printf("%s miss-rate curve (%s)\n", b.Name, *method)
	fmt.Printf("%-12s %s\n", "LLC (MiB)", "MPKI")
	for _, p := range curve.Points {
		fmt.Printf("%-12.3f %.2f\n", float64(p.CapacityBytes)/(1<<20), p.MPKI)
	}
	if i, ok := gpuscale.DetectCliff(curve.MPKIs(), 0, 0); ok {
		fmt.Printf("cliff detected between %.3f and %.3f MiB\n",
			float64(curve.Points[i].CapacityBytes)/(1<<20),
			float64(curve.Points[i+1].CapacityBytes)/(1<<20))
	} else {
		fmt.Println("no cliff detected")
	}
}
