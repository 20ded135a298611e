package gpuscale_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gpuscale"
)

// -update regenerates testdata/golden_stats.json from the current
// simulator. Run it ONLY when a simulation-visible change is intended and
// reviewed; the whole point of the file is that hot-path optimisations must
// NOT change it.
var updateGolden = flag.Bool("update", false, "rewrite golden stats testdata")

const goldenStatsPath = "testdata/golden_stats.json"

// goldenEntry is one (workload, configuration) cell of the golden grid.
// Exactly one of Sim and MCM is set.
type goldenEntry struct {
	Label string             `json:"label"`
	Sim   *gpuscale.SimStats `json:"sim,omitempty"`
	MCM   *gpuscale.MCMStats `json:"mcm,omitempty"`
}

// goldenCells simulates the full golden grid: all 21 strong-scaling
// benchmarks on the 8- and 16-SM scale models (the two configurations every
// prediction in the paper is derived from), three sharded monolithic cells
// byte-identical to their sequential twins, the 4- and 2-chiplet MCM configurations (sequential and sharded),
// two weak-scaling MCM cells, three horizon-boundary cells with
// long-latency DRAM, six microarchitecture-variant cells (two-level,
// sectored and deflect — monolithic and MCM, each checked against a
// sharded twin in-test), three hot-path structure cells (MSHR files small
// enough to stall, monolithic and MCM, and an SM with 96 resident warps —
// each checked against legacy and sharded twins in-test), and one
// multi-kernel sequence. The strong cells are fanned across the worker
// pool; results are bit-identical to a sequential run.
func goldenCells(t *testing.T) []goldenEntry {
	t.Helper()
	ctx := context.Background()
	base := gpuscale.Baseline128()
	benches := gpuscale.Benchmarks()

	var jobs []gpuscale.Job
	var labels []string
	for _, bench := range benches {
		for _, n := range []int{8, 16} {
			jobs = append(jobs, gpuscale.NewJob(gpuscale.MustScale(base, n), bench.Workload))
			labels = append(labels, fmt.Sprintf("strong/%s/%dsm", bench.Name, n))
		}
	}
	results, err := sweep(ctx, 0, jobs)
	if err != nil {
		t.Fatalf("golden strong sweep: %v", err)
	}
	var cells []goldenEntry
	for i := range results {
		cells = append(cells, goldenEntry{Label: labels[i], Sim: &results[i]})
	}

	// Two chiplet configurations: the 4- and 2-chiplet scale models of the
	// paper's 16-chiplet target, on the three representative benchmarks.
	// Pinning two MCM sizes makes the chiplet run loop's within-cycle
	// ordering (chip-major SM walk, shared link and LLC arbitration)
	// observable at more than one bitset width.
	for _, chips := range []int{4, 2} {
		mcmCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), chips)
		if err != nil {
			t.Fatalf("golden chiplet config: %v", err)
		}
		for _, name := range []string{"dct", "bfs", "pf"} {
			bench, err := gpuscale.BenchmarkByName(name)
			if err != nil {
				t.Fatal(err)
			}
			st, err := gpuscale.SimulateMCMContext(ctx, mcmCfg, bench.Workload)
			if err != nil {
				t.Fatalf("golden chiplet cell %s/%dc: %v", name, chips, err)
			}
			cells = append(cells, goldenEntry{Label: fmt.Sprintf("chiplet/%s/%dc", name, chips), MCM: &st})
		}
	}

	// Sharded MCM cells: the same chiplet configurations driven through the
	// parallel shard loop (WithShards, docs/PARALLELISM.md). The sharded
	// loop's contract is bit-identity with the sequential one, so these
	// snapshots must equal their chiplet/* counterparts above — pinning them
	// separately makes a determinism regression in either loop show up as a
	// golden diff, not just as a test-to-test mismatch. Additive cells: they
	// extend the snapshot, never replace existing entries.
	for _, sc := range []struct {
		bench  string
		chips  int
		shards int
	}{{"bfs", 4, 4}, {"dct", 4, 2}, {"pf", 2, 2}} {
		mcmCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), sc.chips)
		if err != nil {
			t.Fatalf("golden sharded config: %v", err)
		}
		bench, err := gpuscale.BenchmarkByName(sc.bench)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpuscale.SimulateMCMContext(ctx, mcmCfg, bench.Workload, gpuscale.WithShards(sc.shards))
		if err != nil {
			t.Fatalf("golden sharded cell %s/%dc-s%d: %v", sc.bench, sc.chips, sc.shards, err)
		}
		cells = append(cells, goldenEntry{
			Label: fmt.Sprintf("chiplet-sharded/%s/%dc-s%d", sc.bench, sc.chips, sc.shards), MCM: &st})
	}

	// Sharded monolithic cells: strong-scaling cells from the grid above
	// re-run through the per-SM-group shard loop (WithShards). Bit-identity
	// with the sequential loop is the sharded loop's contract, so each
	// snapshot here must be byte-identical to its strong/* twin — pinning
	// them separately makes a determinism regression in either loop show up
	// as a golden diff. Additive cells: they extend the snapshot, never
	// replace existing entries — which is why the pf cell keeps the label it
	// was recorded under, "-q64" included, though it is a plain 3-shard run.
	for _, gc := range []struct {
		label  string
		bench  string
		sms    int
		shards int
	}{
		{"gpu-sharded/bfs/16sm-s4", "bfs", 16, 4},
		{"gpu-sharded/dct/8sm-s2", "dct", 8, 2},
		{"gpu-sharded/pf/16sm-s3-q64", "pf", 16, 3},
	} {
		bench, err := gpuscale.BenchmarkByName(gc.bench)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpuscale.SimulateContext(ctx, gpuscale.MustScale(base, gc.sms), bench.Workload, gpuscale.WithShards(gc.shards))
		if err != nil {
			t.Fatalf("golden gpu-sharded cell %s: %v", gc.label, err)
		}
		twin := fmt.Sprintf("strong/%s/%dsm", gc.bench, gc.sms)
		for _, c := range cells {
			if c.Label == twin && *c.Sim != st {
				t.Errorf("%s diverged from its sequential twin %s\n got %+v\nwant %+v", gc.label, twin, st, *c.Sim)
			}
		}
		cells = append(cells, goldenEntry{Label: gc.label, Sim: &st})
	}

	// Weak-scaling MCM cells: two Table IV families from the paper's chiplet
	// case study, each with its input scaled to the 4-chiplet model's SM
	// count (the case study's own protocol).
	mcmWeakCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 4)
	if err != nil {
		t.Fatalf("golden chiplet weak config: %v", err)
	}
	weakSMs := mcmWeakCfg.NumChiplets * mcmWeakCfg.Chiplet.NumSMs
	for _, name := range []string{"bfs", "va"} {
		fam, err := gpuscale.WeakBenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpuscale.SimulateMCMContext(ctx, mcmWeakCfg, fam.ForSMs(weakSMs))
		if err != nil {
			t.Fatalf("golden chiplet weak cell %s: %v", name, err)
		}
		cells = append(cells, goldenEntry{Label: "chiplet-weak/" + name + "/4c", MCM: &st})
	}

	// Horizon-boundary cells: DRAM latencies tuned so blocked-warp wake-up
	// distances clustered around the 64-cycle horizon the timing kernel's
	// wheel had when they were added (it is sched.Horizon, 512, now). They
	// stay as short-latency DRAM cells: grid growth is additive, so cells
	// extend the snapshot and never replace existing entries.
	for _, hc := range []struct {
		bench string
		dram  int
	}{{"bfs", 52}, {"dct", 68}} {
		hcfg := gpuscale.MustScale(base, 8)
		hcfg.DRAMLatency = hc.dram
		hcfg.Name = fmt.Sprintf("%s-dram%d", hcfg.Name, hc.dram)
		bench, err := gpuscale.BenchmarkByName(hc.bench)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpuscale.SimulateContext(ctx, hcfg, bench.Workload)
		if err != nil {
			t.Fatalf("golden horizon cell %s/dram%d: %v", hc.bench, hc.dram, err)
		}
		cells = append(cells, goldenEntry{
			Label: fmt.Sprintf("horizon/%s/8sm-dram%d", hc.bench, hc.dram), Sim: &st})
	}
	mcmHorizonCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 2)
	if err != nil {
		t.Fatalf("golden horizon chiplet config: %v", err)
	}
	mcmHorizonCfg.Chiplet.DRAMLatency = 15
	mcmHorizonCfg.Name += "-dram15"
	hbench, err := gpuscale.BenchmarkByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	hmcm, err := gpuscale.SimulateMCMContext(ctx, mcmHorizonCfg, hbench.Workload)
	if err != nil {
		t.Fatalf("golden horizon chiplet cell: %v", err)
	}
	cells = append(cells, goldenEntry{Label: "horizon/bfs/2c-dram15", MCM: &hmcm})

	// Microarchitecture-variant cells: one monolithic 8-SM cell and one
	// 2-chiplet MCM cell per non-default variant axis (two-level warp
	// scheduling, sectored L1 fills, bufferless-deflection routing — see
	// docs/UARCH.md). Each monolithic cell is also re-run through the shard
	// loop and asserted byte-identical in-test, extending the sharded
	// determinism contract to every variant without enlarging the snapshot.
	// Additive cells: they extend the snapshot, never replace existing
	// entries.
	for _, uc := range []string{"two-level", "sectored", "deflect"} {
		v, err := gpuscale.ParseUarch(uc)
		if err != nil {
			t.Fatalf("golden uarch variant %s: %v", uc, err)
		}
		bench, err := gpuscale.BenchmarkByName("dct")
		if err != nil {
			t.Fatal(err)
		}
		vcfg := gpuscale.MustScale(base, 8)
		st, err := gpuscale.SimulateContext(ctx, vcfg, bench.Workload, gpuscale.WithUarch(v))
		if err != nil {
			t.Fatalf("golden uarch cell %s: %v", uc, err)
		}
		sh, err := gpuscale.SimulateContext(ctx, vcfg, bench.Workload, gpuscale.WithUarch(v), gpuscale.WithShards(2))
		if err != nil {
			t.Fatalf("golden uarch sharded twin %s: %v", uc, err)
		}
		if sh != st {
			t.Errorf("uarch/%s/dct/8sm sharded twin diverged\n got %+v\nwant %+v", uc, sh, st)
		}
		cells = append(cells, goldenEntry{Label: fmt.Sprintf("uarch/%s/dct/8sm", uc), Sim: &st})

		mcmCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 2)
		if err != nil {
			t.Fatalf("golden uarch chiplet config: %v", err)
		}
		mbench, err := gpuscale.BenchmarkByName("bfs")
		if err != nil {
			t.Fatal(err)
		}
		mst, err := gpuscale.SimulateMCMContext(ctx, mcmCfg, mbench.Workload, gpuscale.WithUarch(v))
		if err != nil {
			t.Fatalf("golden uarch chiplet cell %s: %v", uc, err)
		}
		msh, err := gpuscale.SimulateMCMContext(ctx, mcmCfg, mbench.Workload, gpuscale.WithUarch(v), gpuscale.WithShards(2))
		if err != nil {
			t.Fatalf("golden uarch chiplet sharded twin %s: %v", uc, err)
		}
		if msh != mst {
			t.Errorf("uarch-chiplet/%s/bfs/2c sharded twin diverged\n got %+v\nwant %+v", uc, msh, mst)
		}
		cells = append(cells, goldenEntry{Label: fmt.Sprintf("uarch-chiplet/%s/bfs/2c", uc), MCM: &mst})
	}

	// Hot-path structure cells: configurations that reach code no other cell
	// does — an L1 MSHR file small enough to fill (MSHRStalls > 0, so the
	// Full -> NextCompletion -> delayed-arrival path runs; capacity below the
	// live-warp count), in both simulators, and an SM with more than 64
	// resident warps (multi-word slots in the pending-warp wheel). Each is
	// re-run through the dense reference loop and the shard loop and asserted
	// byte-identical in-test. Additive cells: they extend the snapshot, never
	// replace existing entries.
	twinOpts := map[string]gpuscale.SimOption{
		"legacy":   gpuscale.WithOptions(gpuscale.SimOptions{UseLegacyLoop: true}),
		"shards=2": gpuscale.WithShards(2),
		"shards=3": gpuscale.WithShards(3),
	}
	stallCfg := gpuscale.MustScale(base, 8)
	stallCfg.L1MSHRs = 16
	stallCfg.Name += "-mshr16"
	wideCfg := gpuscale.MustScale(base, 8)
	wideCfg.WarpsPerSM, wideCfg.MaxCTAsPerSM = 96, 32
	wideCfg.Name += "-w96"
	for _, sc := range []struct {
		label  string
		cfg    gpuscale.SystemConfig
		stalls bool
	}{{"mshr-stall/bfs/8sm-mshr16", stallCfg, true}, {"wide-sm/bfs/8sm-w96", wideCfg, false}} {
		st, err := gpuscale.SimulateContext(ctx, sc.cfg, hbench.Workload)
		if err != nil {
			t.Fatalf("golden cell %s: %v", sc.label, err)
		}
		if sc.stalls && st.MSHRStalls == 0 {
			t.Errorf("%s: no MSHR stalls, the cell no longer reaches the full-file path", sc.label)
		}
		for name, opt := range twinOpts {
			tw, err := gpuscale.SimulateContext(ctx, sc.cfg, hbench.Workload, opt)
			if err != nil {
				t.Fatalf("golden cell %s %s twin: %v", sc.label, name, err)
			}
			if tw != st {
				t.Errorf("%s %s twin diverged\n got %+v\nwant %+v", sc.label, name, tw, st)
			}
		}
		cells = append(cells, goldenEntry{Label: sc.label, Sim: &st})
	}
	stallMCM, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 2)
	if err != nil {
		t.Fatalf("golden mshr-stall chiplet config: %v", err)
	}
	stallMCM.Chiplet.L1MSHRs = 8
	stallMCM.Name += "-mshr8"
	smcm, err := gpuscale.SimulateMCMContext(ctx, stallMCM, hbench.Workload)
	if err != nil {
		t.Fatalf("golden mshr-stall chiplet cell: %v", err)
	}
	for name, opt := range twinOpts { // shards=3 clamps to the two chiplets
		tw, err := gpuscale.SimulateMCMContext(ctx, stallMCM, hbench.Workload, opt)
		if err != nil {
			t.Fatalf("golden mshr-stall chiplet %s twin: %v", name, err)
		}
		if tw != smcm {
			t.Errorf("mshr-stall/bfs/2c-mshr8 %s twin diverged\n got %+v\nwant %+v", name, tw, smcm)
		}
	}
	cells = append(cells, goldenEntry{Label: "mshr-stall/bfs/2c-mshr8", MCM: &smcm})

	// One multi-kernel sequence: three kernels back to back with a grid
	// barrier between them and caches persisting across them.
	var kernels []gpuscale.Workload
	for _, name := range []string{"dct", "bfs", "pf"} {
		bench, err := gpuscale.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, bench.Workload)
	}
	seq, err := gpuscale.SimulateSequenceContext(ctx, gpuscale.MustScale(base, 8), kernels)
	if err != nil {
		t.Fatalf("golden sequence cell: %v", err)
	}
	cells = append(cells, goldenEntry{Label: "seq/dct+bfs+pf/8sm", Sim: &seq})

	sort.Slice(cells, func(i, j int) bool { return cells[i].Label < cells[j].Label })
	return cells
}

// TestGoldenStats pins every statistic of the simulator — Cycles, IPC,
// FMem, MPKI, every raw counter — to a committed snapshot, bit for bit.
// Performance work on the simulator hot path (the event-driven run loop,
// the flat MSHR file) is only acceptable while this test stays green
// without -update: identical simulated results, faster host execution.
func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid simulates 69 cells; skipped in -short mode")
	}
	cells := goldenCells(t)

	if *updateGolden {
		buf, err := json.MarshalIndent(cells, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStatsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", goldenStatsPath, len(cells))
		return
	}

	buf, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatalf("reading golden stats (run `go test -run TestGoldenStats -update .` to create): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenStatsPath, err)
	}
	wantByLabel := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		wantByLabel[e.Label] = e
	}
	if len(want) != len(cells) {
		t.Errorf("golden grid has %d cells, snapshot has %d", len(cells), len(want))
	}
	for _, got := range cells {
		w, ok := wantByLabel[got.Label]
		if !ok {
			t.Errorf("%s: missing from golden snapshot", got.Label)
			continue
		}
		switch {
		case got.Sim != nil && w.Sim != nil:
			if *got.Sim != *w.Sim {
				t.Errorf("%s: stats diverged from golden snapshot\n got %+v\nwant %+v", got.Label, *got.Sim, *w.Sim)
			}
		case got.MCM != nil && w.MCM != nil:
			if *got.MCM != *w.MCM {
				t.Errorf("%s: MCM stats diverged from golden snapshot\n got %+v\nwant %+v", got.Label, *got.MCM, *w.MCM)
			}
		default:
			t.Errorf("%s: golden snapshot entry kind mismatch", got.Label)
		}
	}
}
