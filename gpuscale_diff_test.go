// The generated differential test of the simulator's run loops. It draws
// small random machines — monolithic GPUs of 1–12 SMs or multi-chiplet
// packages of 1–4 chiplets x 1–4 SMs — with 3–5 LLC slices, MSHR files down
// to one entry, resident-warp counts on both sides of the 64-warp bitmap
// word, a random microarchitecture variant, sampler interval and warm-up
// cutoff, and runs random phase programs (1–3 kernels back to back on
// monolithic machines) through every run loop. The event loop, the dense
// reference loop and the sharded runner at 2 and 3 shards must agree on the
// returned statistics and, when an observer is attached, on every interval
// sample and every published metric. Each case is a pure function of its
// seed; a failure prints the drawn case as a Go literal.
package gpuscale_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gpuscale"
	"gpuscale/internal/obs"
	"gpuscale/internal/trace"
	"gpuscale/internal/trace/tracetest"
)

// diffKernel is one generated kernel: its geometry, occupancy limit and the
// seed of its warps' phase programs.
type diffKernel struct {
	CTAs, Warps, Limit int
	Seed               int64
}

// diffCase is one generated machine plus program.
type diffCase struct {
	Chiplets    int // 0: a monolithic GPU of SMs SMs; else SMs is per chiplet
	SMs         int
	Slices      int
	LLCSets     int // per slice, 4 ways each
	MSHRs       int
	WarpsPerSM  int
	DRAMLatency int
	NoCGBps     float64
	MemCtrls    int
	MemGBps     float64 // per controller
	LinkGBps    float64 // per chiplet
	HopLatency  int
	PageSize    int
	Contiguous  bool
	Uarch       gpuscale.UarchVariant
	Observe     bool
	SampleEvery int64
	WarmupPct   uint64 // warm-up cutoff in percent of the instruction total; 0 = none
	Kernels     []diffKernel
}

func drawDiffCase(seed int64) diffCase {
	rng := rand.New(rand.NewSource(seed))
	c := diffCase{
		Slices:      3 + rng.Intn(3),
		LLCSets:     1 << rng.Intn(5),
		MSHRs:       1 + rng.Intn(8),
		WarpsPerSM:  []int{24, 48, 64, 80, 128}[rng.Intn(5)],
		DRAMLatency: 20 + rng.Intn(280),
		NoCGBps:     float64(int(32) << rng.Intn(5)),
		MemCtrls:    1 + rng.Intn(3),
		MemGBps:     float64(int(16) << rng.Intn(4)),
		Uarch:       gpuscale.UarchVariant{IssueWidth: 1 + rng.Intn(2)},
		Observe:     rng.Intn(2) == 0,
		SampleEvery: []int64{1, 7, 100, 1000}[rng.Intn(4)],
	}
	switch rng.Intn(3) { // 0 keeps the default GTO scheduler
	case 1:
		c.Uarch.Scheduler = gpuscale.SchedLRR
	case 2:
		c.Uarch.Scheduler = gpuscale.SchedTwoLevel
	}
	if rng.Intn(2) == 0 {
		c.Uarch.L1 = gpuscale.L1Sectored
	}
	if rng.Intn(2) == 0 {
		c.Uarch.NoC = gpuscale.RouteDeflect
	}
	if rng.Intn(3) == 0 {
		c.WarmupPct = uint64(10 + rng.Intn(60))
	}
	kernels := 1
	if rng.Intn(2) == 0 {
		c.Chiplets = 1 + rng.Intn(4)
		c.SMs = 1 + rng.Intn(4)
		c.LinkGBps = float64(int(16) << rng.Intn(4))
		c.HopLatency = rng.Intn(100)
		c.PageSize = 256 << rng.Intn(6)
		c.Contiguous = rng.Intn(2) == 0
	} else {
		c.SMs = 1 + rng.Intn(12)
		kernels = 1 + rng.Intn(3)
	}
	for i := 0; i < kernels; i++ {
		c.Kernels = append(c.Kernels, diffKernel{CTAs: 1 + rng.Intn(24), Warps: 1 + rng.Intn(4), Limit: rng.Intn(4), Seed: rng.Int63()})
	}
	return c
}

// literal renders the case as Go source.
func (c diffCase) literal() string {
	return strings.ReplaceAll(fmt.Sprintf("%#v", c), "gpuscale_test.", "")
}

// diffRun is everything one run loop reports: exactly one of Sim and MCM is
// meaningful, and Samples/Metrics are empty without an observer.
type diffRun struct {
	Sim     gpuscale.SimStats
	MCM     gpuscale.MCMStats
	Samples []obs.Sample
	Metrics obs.MetricsSnapshot
}

func (c diffCase) run(first ...gpuscale.SimOption) (diffRun, error) {
	cfg := tracetest.SmallConfig(c.SMs, c.Slices, int64(c.Slices*c.LLCSets*4*128))
	cfg.L1MSHRs = c.MSHRs
	cfg.WarpsPerSM = c.WarpsPerSM
	cfg.DRAMLatency = c.DRAMLatency
	cfg.NoCBisectionGBps = c.NoCGBps
	cfg.MemControllers = c.MemCtrls
	cfg.MemBWPerMCGBps = c.MemGBps
	var kernels []gpuscale.Workload
	var total uint64
	for i, k := range c.Kernels {
		w := tracetest.RandomWorkload(fmt.Sprintf("k%d", i),
			trace.KernelSpec{NumCTAs: k.CTAs, WarpsPerCTA: k.Warps, CTAsPerSMLimit: k.Limit}, k.Seed)
		n, _ := trace.InstructionCount(w)
		total += n
		kernels = append(kernels, w)
	}
	opts := append(first, gpuscale.WithUarch(c.Uarch))
	if c.WarmupPct > 0 {
		opts = append(opts, gpuscale.WithWarmupInstructions(total*c.WarmupPct/100))
	}
	var rec *gpuscale.Observer
	if c.Observe {
		rec = gpuscale.NewObserver()
		opts = append(opts, gpuscale.WithObserver(rec), gpuscale.WithSampleInterval(c.SampleEvery))
	}
	var r diffRun
	var err error
	ctx := context.Background()
	if c.Chiplets == 0 {
		r.Sim, err = gpuscale.SimulateSequenceContext(ctx, cfg, kernels, opts...)
	} else {
		mcm := gpuscale.ChipletConfig{
			Name:                       "diff-mcm",
			NumChiplets:                c.Chiplets,
			Chiplet:                    cfg,
			InterChipletGBpsPerChiplet: c.LinkGBps,
			InterChipletLatency:        c.HopLatency,
			PageSize:                   c.PageSize,
		}
		if c.Contiguous {
			mcm.CTAScheduler = "contiguous"
		}
		r.MCM, err = gpuscale.SimulateMCMContext(ctx, mcm, kernels[0], opts...)
	}
	if rec != nil {
		r.Samples = rec.Samples()
		r.Metrics = rec.Registry().Snapshot()
	}
	return r, err
}

// checkDiffCase runs c through every loop and fails on the first divergence
// from the event loop.
func checkDiffCase(t *testing.T, seed int64) {
	t.Helper()
	c := drawDiffCase(seed)
	ref, err := c.run()
	if err != nil {
		t.Fatalf("seed %d: event loop: %v\ncase: %s", seed, err, c.literal())
	}
	for _, leg := range []struct {
		name string
		opt  gpuscale.SimOption
	}{
		{"dense", gpuscale.WithOptions(gpuscale.SimOptions{UseLegacyLoop: true})},
		{"shards=2", gpuscale.WithShards(2)},
		{"shards=3", gpuscale.WithShards(3)},
	} {
		got, err := c.run(leg.opt)
		if err != nil {
			t.Fatalf("seed %d: %s: %v\ncase: %s", seed, leg.name, err, c.literal())
		}
		var diff []string
		if got.Sim != ref.Sim || got.MCM != ref.MCM {
			diff = append(diff, fmt.Sprintf("stats\n  event %+v %+v\n  %s %+v %+v", ref.Sim, ref.MCM, leg.name, got.Sim, got.MCM))
		}
		if !reflect.DeepEqual(got.Samples, ref.Samples) {
			diff = append(diff, fmt.Sprintf("samples (%d vs %d)", len(got.Samples), len(ref.Samples)))
		}
		if !reflect.DeepEqual(got.Metrics, ref.Metrics) {
			var names []string
			for name, v := range ref.Metrics.Counters {
				if got.Metrics.Counters[name] != v {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			if len(names) > 3 {
				names = append(names[:3], "...")
			}
			diff = append(diff, fmt.Sprintf("metrics (counters %s)", strings.Join(names, ", ")))
		}
		if len(diff) > 0 {
			t.Fatalf("seed %d: %s diverges from the event loop: %s\ncase: %s", seed, leg.name, strings.Join(diff, "; "), c.literal())
		}
	}
}

// TestRunLoopsAgreeOnGeneratedMachines is the seeded, bounded sweep.
func TestRunLoopsAgreeOnGeneratedMachines(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < n; seed++ {
		checkDiffCase(t, seed)
	}
}

// FuzzRunLoopsAgree is the open-ended form: go test -run '^$' -fuzz
// FuzzRunLoopsAgree draws cases from seeds beyond the bounded sweep's.
func FuzzRunLoopsAgree(f *testing.F) {
	f.Add(int64(-1))
	f.Fuzz(func(t *testing.T, seed int64) { checkDiffCase(t, seed) })
}
