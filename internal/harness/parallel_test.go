package harness

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gpuscale/internal/config"
	"gpuscale/internal/engine"
	"gpuscale/internal/trace"
)

// countingWorkload counts NewProgram calls, exposing how many times a
// simulation actually instantiated its warps — the observable difference
// between one simulation run and several duplicated ones.
type countingWorkload struct {
	name  string
	calls atomic.Int64
}

func (c *countingWorkload) Name() string { return c.name }
func (c *countingWorkload) Kernel() trace.KernelSpec {
	return trace.KernelSpec{NumCTAs: 6, WarpsPerCTA: 2}
}
func (c *countingWorkload) NewProgram(cta, warp int) trace.Program {
	c.calls.Add(1)
	return trace.NewPhaseProgram(trace.Phase{
		N: 48, ComputePer: 2,
		Gen: &trace.SeqGen{Start: uint64(cta) * 512, Stride: 128, Extent: 1 << 19},
	})
}

// TestRunSingleflight is the regression test for the parallel-harness race
// audit: concurrent Run calls with the same (config, workload) key must
// execute the simulation exactly once and share the result. The pre-audit
// check-then-compute memo ran it once per racing caller.
func TestRunSingleflight(t *testing.T) {
	cfg := config.MustScale(config.Baseline128(), 8)

	// Baseline: how many NewProgram calls does one simulation make?
	solo := &countingWorkload{name: "count-solo"}
	if _, err := New().Run(cfg, solo); err != nil {
		t.Fatal(err)
	}
	perRun := solo.calls.Load()
	if perRun == 0 {
		t.Fatal("baseline simulation instantiated no programs")
	}

	shared := &countingWorkload{name: "count-solo"} // same key as solo
	h := New()
	const callers = 8
	results := make([]TimedStats, callers)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := h.Run(cfg, shared)
			if err != nil {
				firstErr.Store(err)
				return
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}
	if got := shared.calls.Load(); got != perRun {
		t.Errorf("%d concurrent Run calls made %d NewProgram calls, want %d (one simulation)",
			callers, got, perRun)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("caller %d got different TimedStats than caller 0", i)
		}
	}
}

// tinyGrid builds a small sweep (3 workloads × 2 configurations plus one
// miss-rate curve each) cheap enough for race-enabled runs.
func tinyGrid() (ws []trace.Workload, cfgs []config.SystemConfig, units []prewarmUnit) {
	base := config.Baseline128()
	cfgs = []config.SystemConfig{config.MustScale(base, 8), config.MustScale(base, 16)}
	for i, pattern := range []uint64{128, 256, 384} {
		w := &trace.FuncWorkload{
			WName: "grid-" + string(rune('a'+i)),
			Spec:  trace.KernelSpec{NumCTAs: 8, WarpsPerCTA: 2},
			Factory: func(cta, warp int) trace.Program {
				return trace.NewPhaseProgram(trace.Phase{
					N: 64, ComputePer: 2,
					Gen: &trace.SeqGen{Start: uint64(cta) * pattern, Stride: pattern, Extent: 1 << 20},
				})
			},
		}
		ws = append(ws, w)
		for _, cfg := range cfgs {
			units = append(units, prewarmUnit{cfg: cfg, w: w})
		}
		units = append(units, prewarmUnit{w: w, curve: true, cfgs: cfgs})
	}
	return ws, cfgs, units
}

// TestPrewarmMatchesSequential asserts the determinism contract of the
// parallel sweep path: a harness that pre-warms its memo with 8 workers
// serves bit-identical Stats and curves to one that computed everything
// sequentially on demand.
func TestPrewarmMatchesSequential(t *testing.T) {
	ws, cfgs, units := tinyGrid()

	par := New(WithParallel(8))
	par.prewarm(units)

	seq := New(WithParallel(1))

	for _, w := range ws {
		for _, cfg := range cfgs {
			p, err := par.Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			s, err := seq.Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Stats, s.Stats) {
				t.Errorf("%s/%s: parallel Stats differ from sequential", cfg.Name, w.Name())
			}
		}
		pc, err := par.Curve(w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := seq.Curve(w, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pc, sc) {
			t.Errorf("%s: parallel curve differs from sequential", w.Name())
		}
	}
}

// TestCurveMemoKeyedByLadder: the curve memo once keyed on the workload
// alone, so a second ladder silently got the first ladder's curve back.
func TestCurveMemoKeyedByLadder(t *testing.T) {
	ws, cfgs, _ := tinyGrid()
	h := New(WithParallel(2))
	both, err := h.Curve(ws[0], cfgs)
	if err != nil {
		t.Fatal(err)
	}
	upper, err := h.Curve(ws[0], cfgs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(both.Points) != 2 || !reflect.DeepEqual(upper.Points, both.Points[1:]) {
		t.Errorf("curve over %s alone is %+v, want the upper point of %+v", cfgs[1].Name, upper, both)
	}
	if again, _ := h.Curve(ws[0], cfgs); !reflect.DeepEqual(again, both) {
		t.Errorf("the first ladder's curve changed: %+v, was %+v", again, both)
	}
}

// TestPrewarmProgress checks that the pre-warm reports one serialised
// progress snapshot per unit, ending complete.
func TestPrewarmProgress(t *testing.T) {
	_, _, units := tinyGrid()
	var snaps []engine.Progress
	h := New(
		WithParallel(4),
		WithProgress(func(p engine.Progress) { snaps = append(snaps, p) }),
	)
	h.prewarm(units)
	if len(snaps) != len(units) {
		t.Fatalf("got %d progress snapshots, want %d", len(snaps), len(units))
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != len(units) {
			t.Errorf("snapshot %d: Done=%d Total=%d, want %d/%d", i, p.Done, p.Total, i+1, len(units))
		}
	}
	if last := snaps[len(snaps)-1]; last.Failed != 0 {
		t.Errorf("final snapshot reports %d failures", last.Failed)
	}
}

// TestPrewarmSequentialNoop checks that parallelism 1 really disables the
// pre-warm: nothing is simulated until the analysis path asks.
func TestPrewarmSequentialNoop(t *testing.T) {
	w := &countingWorkload{name: "noop"}
	h := New(WithParallel(1))
	h.prewarm([]prewarmUnit{
		{cfg: config.MustScale(config.Baseline128(), 8), w: w},
		{cfg: config.MustScale(config.Baseline128(), 16), w: w},
	})
	if got := w.calls.Load(); got != 0 {
		t.Errorf("sequential harness pre-warmed %d program instantiations, want 0", got)
	}
}

// TestWithParallelNormalises checks the n <= 0 → NumCPU reset rule.
func TestWithParallelNormalises(t *testing.T) {
	if n := New(WithParallel(-3)).parallel; n < 1 {
		t.Errorf("WithParallel(-3) left parallelism %d", n)
	}
	if n := New(WithParallel(5)).parallel; n != 5 {
		t.Errorf("WithParallel(5) gave %d", n)
	}
}

// TestMCMShardsDefault checks that New resolves the MCM shard count once:
// the WithMCMShards override when positive, else the WithShards count,
// with negative counts treated as 0.
func TestMCMShardsDefault(t *testing.T) {
	for i, c := range []struct {
		opts []Option
		want int
	}{
		{nil, 0},
		{[]Option{WithShards(3)}, 3},
		{[]Option{WithShards(3), WithMCMShards(2)}, 2},
		{[]Option{WithMCMShards(4)}, 4},
		{[]Option{WithShards(3), WithMCMShards(-2)}, 3},
		{[]Option{WithShards(-1)}, 0},
	} {
		if got := New(c.opts...).mcmShards; got != c.want {
			t.Errorf("case %d: MCM shard count %d, want %d", i, got, c.want)
		}
	}
}
