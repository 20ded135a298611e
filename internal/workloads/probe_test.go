package workloads

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/gpu"
	"gpuscale/internal/mrc"
	"gpuscale/internal/trace"
)

// TestProbeClasses is a tuning harness, run manually:
//
//	PROBE=dct,bfs go test -run TestProbeClasses -v ./internal/workloads/
func TestProbeClasses(t *testing.T) {
	sel := os.Getenv("PROBE")
	if sel == "" {
		t.Skip("set PROBE=name,name or PROBE=all")
	}
	want := map[string]bool{}
	for _, n := range strings.Split(sel, ",") {
		want[n] = true
	}
	cfgs := config.StandardConfigs()
	for _, b := range All() {
		if !want["all"] && !want[b.Name] {
			continue
		}
		var ipcs []float64
		for _, cfg := range cfgs {
			sim, err := gpu.New(cfg, []trace.Workload{b.Workload}, gpu.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.RunContext(context.Background())
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, cfg.Name, err)
			}
			ipcs = append(ipcs, st.IPC)
			fmt.Printf("%-6s %-10s IPC=%8.2f perSM=%.3f FMem=%.3f MPKI=%7.2f NoCU=%.2f DRAMU=%.2f cyc=%d\n",
				b.Name, cfg.Name, st.IPC, st.IPC/float64(cfg.NumSMs), st.FMem, st.LLCMPKI, st.NoCUtilization, st.DRAMUtilization, st.Cycles)
		}
		curve, err := mrc.FunctionalSweep(b.Workload, cfgs)
		if err != nil {
			t.Fatalf("%s MRC: %v", b.Name, err)
		}
		fmt.Printf("%-6s MRC=%v\n", b.Name, curve.MPKIs())
		ratio := (ipcs[4] / 128) / (ipcs[0] / 8)
		fmt.Printf("%-6s class=%s perSM128/perSM8=%.2f\n\n", b.Name, b.Class, ratio)
	}
}
