package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"gpuscale"
	"gpuscale/internal/trace"
)

// goldenPath is the simulator's committed statistics snapshot. The bench
// reads it and never writes it: every cell it simulates that the snapshot
// holds must reproduce the snapshot bit for bit.
const goldenPath = "testdata/golden_stats.json"

// cellStats is one simulated cell's statistics, in the golden file's shape.
type cellStats struct {
	Label string             `json:"label"`
	Sim   *gpuscale.SimStats `json:"sim,omitempty"`
	MCM   *gpuscale.MCMStats `json:"mcm,omitempty"`
}

func (a cellStats) equal(b cellStats) bool {
	switch {
	case a.Sim != nil && b.Sim != nil:
		return *a.Sim == *b.Sim
	case a.MCM != nil && b.MCM != nil:
		return *a.MCM == *b.MCM
	}
	return false
}

func (a cellStats) instructions() uint64 {
	if a.Sim != nil {
		return a.Sim.Instructions
	}
	return a.MCM.Instructions
}

func (a cellStats) events() uint64 {
	if a.Sim != nil {
		return a.Sim.SimEvents
	}
	return a.MCM.SimEvents
}

func (a cellStats) ipc() float64 {
	if a.Sim != nil {
		return a.Sim.IPC
	}
	return a.MCM.IPC
}

// cell is one operation of a cycle workload: one call into the facade.
type cell struct {
	label  string
	golden string // label of the golden entry whose statistics this cell must equal
	sys    *gpuscale.SystemConfig
	mcm    *gpuscale.ChipletConfig
	w      gpuscale.Workload
	opts   []gpuscale.SimOption
}

// layer names the module that does the cell's work.
func (c cell) layer() string {
	switch {
	case strings.HasPrefix(c.label, "shard2/"):
		return "parallel"
	case c.mcm != nil:
		return "chiplet"
	}
	return "gpu"
}

// run simulates the cell. first, when given, is applied before the cell's
// own options (WithOptions replaces the whole option struct, so a variant
// that needs it must go first).
func (c cell) run(ctx context.Context, first ...gpuscale.SimOption) (cellStats, time.Duration, error) {
	opts := append(append([]gpuscale.SimOption(nil), first...), c.opts...)
	runtime.GC() // the previous cell's garbage is not this cell's cost
	t0 := time.Now()
	if c.mcm != nil {
		st, err := gpuscale.SimulateMCMContext(ctx, *c.mcm, c.w, opts...)
		return cellStats{Label: c.label, MCM: &st}, time.Since(t0), err
	}
	st, err := gpuscale.SimulateContext(ctx, *c.sys, c.w, opts...)
	return cellStats{Label: c.label, Sim: &st}, time.Since(t0), err
}

func strongCell(bench string, sms int) (cell, error) {
	b, err := gpuscale.BenchmarkByName(bench)
	if err != nil {
		return cell{}, err
	}
	return monoCell(b.Workload, sms)
}

func monoCell(w gpuscale.Workload, sms int) (cell, error) {
	cfg, err := gpuscale.Scale(gpuscale.Baseline128(), sms)
	if err != nil {
		return cell{}, err
	}
	label := fmt.Sprintf("strong/%s/%dsm", w.Name(), sms)
	return cell{label: label, golden: label, sys: &cfg, w: w}, nil
}

func chipletCell(bench string, weak bool, chips int) (cell, error) {
	family := "chiplet"
	if weak {
		family = "chiplet-weak"
	}
	return mcmCell(family, bench, chips, gpuscale.WorkloadSpec{Bench: bench, Weak: weak}.Resolve)
}

// mcmCell builds a multi-chiplet cell; resolve sizes the workload for the
// package's SM count (weak-scaling families grow with it).
func mcmCell(family, name string, chips int, resolve func(totalSMs int) (gpuscale.Workload, error)) (cell, error) {
	cfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), chips)
	if err != nil {
		return cell{}, err
	}
	w, err := resolve(cfg.TotalSMs())
	if err != nil {
		return cell{}, err
	}
	label := fmt.Sprintf("%s/%s/%dc", family, name, chips)
	return cell{label: label, golden: label, mcm: &cfg, w: w}, nil
}

func toyChipletCell() (cell, error) {
	return mcmCell("chiplet", "bench-toy", 2, func(int) (gpuscale.Workload, error) { return toyKernel(), nil })
}

// toyKernel is a few tens of thousands of warp instructions of streaming
// loads: every path of the bench runs on it, in milliseconds, for `go test`.
func toyKernel() gpuscale.Workload {
	return &gpuscale.FuncWorkload{
		WName: "bench-toy",
		Spec:  gpuscale.KernelSpec{NumCTAs: 128, WarpsPerCTA: 4},
		Factory: func(cta, warp int) gpuscale.Program {
			return gpuscale.NewPhaseProgram(gpuscale.Phase{N: 120, ComputePer: 3,
				Gen: &trace.SeqGen{Base: uint64(cta*4+warp) << 16, Stride: 128, Extent: 1 << 16}})
		},
	}
}

// sharded turns a sequential cell into its two-shard twin: same golden
// entry (the run loops are bit-identical by contract), different label.
func sharded(c cell, err error) (cell, error) {
	c.label = "shard2/" + c.label
	c.opts = append(c.opts, gpuscale.WithShards(2))
	return c, err
}

// cycleCells is each cycle workload's fixed operation list; at toy sizes,
// the same shapes on toyKernel.
func cycleCells(name string, toy bool) ([]cell, error) {
	var cells []cell
	var errs []error
	add := func(c cell, err error) {
		cells = append(cells, c)
		errs = append(errs, err)
	}
	switch {
	case name == "cycle-mono" && toy:
		for _, n := range []int{8, 16, 128} {
			add(monoCell(toyKernel(), n))
		}
	case name == "cycle-mono":
		for _, b := range []string{"bfs", "dct", "ht", "va"} {
			for _, n := range []int{8, 16, 128} {
				add(strongCell(b, n))
			}
		}
	case name == "cycle-mcm" && toy:
		add(toyChipletCell())
	case name == "cycle-mcm":
		add(chipletCell("bfs", true, 4))
		add(chipletCell("va", true, 4))
		add(chipletCell("dct", false, 4))
		add(chipletCell("bfs", false, 2))
	case name == "cycle-shard2" && toy:
		add(sharded(toyChipletCell()))
		add(sharded(monoCell(toyKernel(), 8)))
	case name == "cycle-shard2":
		add(sharded(chipletCell("bfs", false, 4)))
		add(sharded(chipletCell("dct", false, 4)))
		add(sharded(strongCell("dct", 8)))
		add(sharded(strongCell("bfs", 16)))
	default:
		return nil, fmt.Errorf("bench: %q is not a cycle workload", name)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// cycleWorkload is cycle-mono, cycle-mcm or cycle-shard2: a fixed list of
// simulations run by one goroutine straight through the facade.
type cycleWorkload struct {
	name   string
	cells  []cell
	golden map[string]cellStats
}

func (w *cycleWorkload) setUp(ctx context.Context, p *params) error {
	cells, err := cycleCells(w.name, p.toy)
	if err != nil {
		return err
	}
	w.cells = cells
	buf, err := os.ReadFile(filepath.Join(p.root, goldenPath))
	if err != nil {
		return err
	}
	var entries []cellStats
	if err := json.Unmarshal(buf, &entries); err != nil {
		return fmt.Errorf("bench: parsing %s: %w", goldenPath, err)
	}
	w.golden = make(map[string]cellStats, len(entries))
	for _, e := range entries {
		w.golden[e.Label] = e
	}
	// One untimed cell, so that lazy initialisation is not timed.
	warm, err := strongCell("ht", 8)
	if p.toy {
		warm, err = monoCell(toyKernel(), 8)
	}
	if err != nil {
		return err
	}
	_, _, err = warm.run(ctx)
	return err
}

func (w *cycleWorkload) tearDown() {}

// cellRuns is what repeated runs of the cell list produced: per cell, the
// first run's statistics and every run's host time.
type cellRuns struct {
	stats []cellStats
	times [][]time.Duration
}

// best returns each cell's shortest host time. A cell is the same
// deterministic computation every time, so what differs between its runs is
// what the host added; with two or three runs of a cell per measurement the
// shortest is a far steadier figure than their median (measured: about half
// the run-to-run spread).
func (cr *cellRuns) best() []time.Duration {
	out := make([]time.Duration, len(cr.times))
	for i, ts := range cr.times {
		out[i] = slices.Min(ts)
	}
	return out
}

// runCells runs the cell list in seed-shuffled order, pass after pass,
// until seconds have passed — but always one whole pass, and never cutting
// a cell short. Every repeat of a cell must reproduce its first statistics.
func (w *cycleWorkload) runCells(ctx context.Context, r *result, rng *rand.Rand, seconds float64, tr *tracer, first ...gpuscale.SimOption) *cellRuns {
	cr := &cellRuns{stats: make([]cellStats, len(w.cells)), times: make([][]time.Duration, len(w.cells))}
	start := time.Now()
	for pass := 0; ; pass++ {
		for _, i := range rng.Perm(len(w.cells)) {
			if pass > 0 && time.Since(start).Seconds() >= seconds {
				return cr
			}
			c := w.cells[i]
			r.Attempted++
			sp := tr.begin(c.layer()+".simulate", r.Attempted, -1)
			st, d, err := c.run(ctx, first...)
			tr.end(sp)
			if err != nil {
				r.Failed++
				r.fail("%s: %v", c.label, err)
				continue
			}
			cr.times[i] = append(cr.times[i], d)
			if pass == 0 {
				cr.stats[i] = st
			} else if !st.equal(cr.stats[i]) {
				r.fail("%s: statistics differ between two runs of the same cell", c.label)
			}
		}
		if seconds <= 0 {
			return cr
		}
	}
}

// checkGolden holds every cell the golden snapshot knows to it. For
// cycle-shard2 the golden entry is the sequential twin, which is how
// sharded = sequential is checked without simulating twice.
func (w *cycleWorkload) checkGolden(r *result, stats []cellStats) {
	checked := 0
	for i, c := range w.cells {
		want, ok := w.golden[c.golden]
		if !ok || stats[i].Label == "" {
			continue
		}
		checked++
		if !stats[i].equal(want) {
			r.fail("%s: statistics differ from golden entry %s", c.label, c.golden)
		}
	}
	r.note("output check: %d of %d cells compared with %s, the rest with their own repeats", checked, len(w.cells), goldenPath)
}

// digest folds every cell's statistics into one SHA-256. A change meant
// only to speed the simulator up must leave it as it is.
func digest(stats []cellStats) string {
	s := append([]cellStats(nil), stats...)
	sort.Slice(s, func(i, j int) bool { return s[i].Label < s[j].Label })
	buf, err := json.Marshal(s)
	if err != nil {
		panic(err) // cellStats holds only numbers and strings
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// throughput reports the timing metrics of one set of cell runs. They are
// built from each cell's best time — one synthetic pass — so they do not
// depend on where the time limit cut the last pass or on the cell order.
func (w *cycleWorkload) throughput(r *result, cr *cellRuns) {
	var sum time.Duration
	var instr uint64
	best := cr.best()
	samples := 0
	for i, b := range best {
		sum += b
		instr += cr.stats[i].instructions()
		samples += len(cr.times[i])
	}
	xs := durationsMS(best)
	r.set("ops_per_s", float64(len(best))/sum.Seconds())
	r.set("p50_ms", median(xs))
	// Four to twelve cells are too few for a percentile with ten samples
	// beyond it; the 75th (nearest rank) is the slow end that still is not
	// a maximum over noisy near-ties.
	r.set("tail_ms", percentile(xs, 75))
	r.note("%d cells, %d timed simulations; one pass at each cell's best time %.2f s, %d warp instructions, sim_mips %.3f Minstr/s; tail_ms is the cells' p75_ms",
		len(best), samples, sum.Seconds(), instr, float64(instr)/sum.Seconds()/1e6)
}

func (w *cycleWorkload) measure(ctx context.Context, p *params, r *result) {
	cr := w.runCells(ctx, r, p.rng(), p.seconds, nil)
	if r.Failed > 0 {
		return
	}
	w.checkGolden(r, cr.stats)
	r.Digest = digest(cr.stats)
	w.throughput(r, cr)
}

// traced is the per-layer run: one reference pass without spans, one pass
// with a span around every cell, then whatever the workload's layers need
// (the dense loop, sequential twins, a quantum cell, component replays).
func (w *cycleWorkload) traced(ctx context.Context, p *params, r *result, tr *tracer) {
	ref := w.runCells(ctx, r, p.rng(), 0, nil)
	cr := w.runCells(ctx, r, p.rng(), 0, tr)
	if r.Failed > 0 {
		return
	}
	for i := range w.cells {
		if !cr.stats[i].equal(ref.stats[i]) {
			r.fail("%s: traced and untraced statistics differ", w.cells[i].label)
		}
	}
	w.checkGolden(r, cr.stats)
	r.Digest = digest(cr.stats)

	var refSum, trSum time.Duration
	for i := range w.cells {
		refSum += ref.times[i][0]
		trSum += cr.times[i][0]
	}
	r.set("trace_overhead_pct", 100*(trSum.Seconds()/refSum.Seconds()-1))

	var instr uint64
	nsPerEvent := make([]float64, len(w.cells))
	for i, st := range cr.stats {
		instr += st.instructions()
		nsPerEvent[i] = float64(cr.times[i][0]) / float64(st.events())
	}
	r.set("sim_mips", float64(instr)/trSum.Seconds()/1e6)

	switch w.name {
	case "cycle-mono":
		r.set("gpu.host_ns_per_event", median(nsPerEvent))
		w.denseLoop(ctx, r, cr)
		w.modelCounts(r, cr.stats)
		w.predictionError(r, cr.stats)
	case "cycle-mcm":
		r.set("chiplet.host_ns_per_event", median(nsPerEvent))
	case "cycle-shard2":
		w.shardRatios(ctx, p, r, cr)
	}
	w.analyticError(r, cr.stats)
	if w.name != "cycle-shard2" {
		unit, err := replayComponents(p.toy)
		if err != nil {
			r.fail("component replay: %v", err)
			return
		}
		unit.report(r)
		w.shares(r, cr, unit)
	}
	r.table("cell", []string{"host ms", "Mevents", "ns/event", "IPC"}, func(add func(string, ...float64)) {
		for i, st := range cr.stats {
			add(st.Label, ms(cr.times[i][0]), float64(st.events())/1e6, nsPerEvent[i], st.ipc())
		}
	})
}

// denseLoop reruns the monolithic cells on the dense reference loop: the
// evidence for the ROADMAP's dense-vs-wheel decision. A ratio above 1 means
// the event loop is the faster one.
func (w *cycleWorkload) denseLoop(ctx context.Context, r *result, cr *cellRuns) {
	dense := w.runCells(ctx, r, rand.New(rand.NewSource(0)), 0, nil,
		gpuscale.WithOptions(gpuscale.SimOptions{UseLegacyLoop: true}))
	ratios := make([]float64, 0, len(w.cells))
	r.table("gpu.event_vs_dense (dense host time / event host time)", []string{"x"}, func(add func(string, ...float64)) {
		for i, c := range w.cells {
			if len(dense.times[i]) == 0 {
				continue
			}
			if !dense.stats[i].equal(cr.stats[i]) {
				r.fail("%s: dense and event loop statistics differ", c.label)
			}
			ratio := float64(dense.times[i][0]) / float64(cr.times[i][0])
			ratios = append(ratios, ratio)
			add(c.label, ratio)
		}
	})
	r.set("gpu.event_vs_dense", median(ratios))
}

// shardRatios runs each sharded cell's sequential twin, and one cell with
// quantum-relaxed barriers. Ratios above 1 mean the sharded (or quantum)
// loop is the faster one.
func (w *cycleWorkload) shardRatios(ctx context.Context, p *params, r *result, cr *cellRuns) {
	ratios := make([]float64, 0, len(w.cells))
	r.table("parallel.shard2_vs_seq (sequential host time / 2-shard host time)", []string{"x"}, func(add func(string, ...float64)) {
		for i, c := range w.cells {
			seq := c
			seq.opts = nil
			st, d, err := seq.run(ctx)
			if err != nil {
				r.fail("%s sequential twin: %v", c.label, err)
				continue
			}
			if !st.equal(cr.stats[i]) {
				r.fail("%s: sharded and sequential statistics differ", c.label)
			}
			ratio := float64(d) / float64(cr.times[i][0])
			ratios = append(ratios, ratio)
			add(c.label, ratio)
		}
	})
	r.set("parallel.shard2_vs_seq", median(ratios))

	q := w.cells[0]
	q.opts = append(append([]gpuscale.SimOption(nil), q.opts...), gpuscale.WithQuantum(256))
	st, d, err := q.run(ctx)
	if err != nil {
		r.fail("%s quantum=256: %v", q.label, err)
		return
	}
	if !st.equal(cr.stats[0]) {
		r.fail("%s: quantum and barrier statistics differ", q.label)
	}
	r.set("parallel.quantum_vs_barrier", float64(cr.times[0][0])/float64(d))
	r.note("parallel.quantum_vs_barrier measured on %s with WithQuantum(256)", q.label)
}

// modelCounts reports the modelled components' own statistics, averaged
// over the monolithic cells. They are simulated quantities and repeat
// exactly; the per-cell values are all inside stats_digest.
func (w *cycleWorkload) modelCounts(r *result, stats []cellStats) {
	var l1, mpki, noc, dram, fmem, skipped []float64
	var stalls uint64
	for _, st := range stats {
		s := st.Sim
		l1 = append(l1, 100*s.L1MissRate)
		mpki = append(mpki, s.LLCMPKI)
		noc = append(noc, 100*s.NoCUtilization)
		dram = append(dram, 100*s.DRAMUtilization)
		fmem = append(fmem, 100*s.FMem)
		skipped = append(skipped, 100*float64(s.SkippedCycles)/float64(s.Cycles))
		stalls += s.MSHRStalls
	}
	r.set("model.l1_miss_pct", mean(l1))
	r.set("model.llc_mpki", mean(mpki))
	r.set("model.noc_util_pct", mean(noc))
	r.set("model.dram_util_pct", mean(dram))
	r.set("model.fmem_pct", mean(fmem))
	r.set("model.skipped_cycle_pct", mean(skipped))
	r.set("model.mshr_stalls", float64(stalls))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// predictionError is the paper's headline number on this workload's cells:
// the Eq. 1-4 prediction of the 128-SM IPC from the 8- and 16-SM scale
// models and the miss-rate curve, against the simulated 128-SM IPC. The
// model has no hardware reference, so this is error against the
// repository's own detailed simulation, not against a GPU.
func (w *cycleWorkload) predictionError(r *result, stats []cellStats) {
	byLabel := make(map[string]cellStats, len(stats))
	for _, st := range stats {
		byLabel[st.Label] = st
	}
	sizes := []float64{8, 16, 32, 64, 128}
	var errs []float64
	seen := make(map[string]bool)
	for _, c := range w.cells {
		name := c.w.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		small, large, target := byLabel["strong/"+name+"/8sm"], byLabel["strong/"+name+"/16sm"], byLabel["strong/"+name+"/128sm"]
		if small.Sim == nil || large.Sim == nil || target.Sim == nil {
			continue
		}
		curve, err := gpuscale.MissRateCurve(c.w, gpuscale.StandardConfigs())
		if err != nil {
			r.fail("miss-rate curve of %s: %v", name, err)
			continue
		}
		pred, err := gpuscale.PredictAt(gpuscale.PredictionInput{
			Sizes: sizes, SmallIPC: small.Sim.IPC, LargeIPC: large.Sim.IPC,
			MPKI: curve.MPKIs(), FMemLarge: large.Sim.FMem, Mode: gpuscale.StrongScaling,
		}, 128)
		if err != nil {
			r.fail("prediction of %s: %v", name, err)
			continue
		}
		e := 100 * math.Abs(pred.IPC-target.Sim.IPC) / target.Sim.IPC
		errs = append(errs, e)
		r.note("pred_err_pct %s: predicted IPC %.3f, simulated %.3f at 128 SMs, %.2f %% (%s)", name, pred.IPC, target.Sim.IPC, e, pred.Region)
	}
	if len(errs) > 0 {
		r.set("pred_err_pct", mean(errs))
	}
}

// analyticError is the analytic tier's error against every simulated cell.
func (w *cycleWorkload) analyticError(r *result, stats []cellStats) {
	var errs []float64
	for i, c := range w.cells {
		var est gpuscale.AnalyticEstimate
		var err error
		if c.mcm != nil {
			est, err = gpuscale.AnalyzeMCMCell(*c.mcm, c.w)
		} else {
			est, err = gpuscale.AnalyzeCell(*c.sys, c.w)
		}
		if err != nil {
			r.fail("analytic estimate of %s: %v", c.label, err)
			continue
		}
		errs = append(errs, 100*math.Abs(est.IPC-stats[i].ipc())/stats[i].ipc())
	}
	if len(errs) > 0 {
		r.set("analytic_err_pct", mean(errs))
	}
}
