package mrc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gpuscale/internal/cache"
	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/workloads"
)

// The oracle: the functional replay and the interleaved stream as they were
// before the sweep extracted a memory trace — every warp program rebuilt and
// stepped instruction by instruction for each configuration, dead cursors
// rescanned every turn. Kept verbatim (the replay additionally returns its
// two counts) so the tests below can hold the sweep to it bit for bit.

type warpCursor struct {
	prog trace.Program
	done bool
}

func (c *warpCursor) nextMem(instrs *uint64) (trace.Instr, bool) {
	if c.done {
		return trace.Instr{}, false
	}
	for {
		in, ok := c.prog.Next()
		if !ok {
			c.done = true
			return trace.Instr{}, false
		}
		*instrs++
		if in.Kind == trace.Load || in.Kind == trace.Store {
			return in, true
		}
	}
}

func oracleRun(w trace.Workload, cfg config.SystemConfig) (llcMisses, instrs uint64, mpki float64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, 0, err
	}
	k := w.Kernel()
	if err := k.Validate(); err != nil {
		return 0, 0, 0, err
	}
	lineBits := uint(0)
	for 1<<lineBits != cfg.LineSize {
		lineBits++
	}
	l1s := make([]*cache.Cache, cfg.NumSMs)
	for i := range l1s {
		l1s[i] = cache.MustNew(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSize)
	}
	llc := make([]*cache.Cache, cfg.LLCSlices)
	for i := range llc {
		llc[i] = cache.MustNew(cfg.LLCSliceSize(), cfg.LLCWays, cfg.LineSize)
	}
	// Assign CTAs round-robin to SMs; keep per-SM warp cursor lists.
	smWarps := make([][]*warpCursor, cfg.NumSMs)
	for c := 0; c < k.NumCTAs; c++ {
		s := c % cfg.NumSMs
		for wp := 0; wp < k.WarpsPerCTA; wp++ {
			smWarps[s] = append(smWarps[s], &warpCursor{prog: w.NewProgram(c, wp)})
		}
	}
	nSlices := uint64(cfg.LLCSlices)
	live := true
	next := make([]int, cfg.NumSMs)
	for live {
		live = false
		for s := range smWarps {
			warps := smWarps[s]
			if len(warps) == 0 {
				continue
			}
			// One access from the next live warp of this SM.
			for tries := 0; tries < len(warps); tries++ {
				cur := warps[next[s]%len(warps)]
				next[s]++
				if cur.done {
					continue
				}
				in, ok := cur.nextMem(&instrs)
				if !ok {
					continue
				}
				live = true
				line := in.Addr >> lineBits
				if in.Flags&trace.BypassL1 == 0 {
					if l1s[s].Access(in.Addr) {
						break // L1 hit: no LLC traffic
					}
				}
				slice := int(line % nSlices)
				sliceLocal := (line / nSlices) << lineBits
				if !llc[slice].Access(sliceLocal) {
					llcMisses++
				}
				break
			}
		}
	}
	if instrs == 0 {
		return 0, 0, 0, fmt.Errorf("mrc: workload %q produced no instructions", w.Name())
	}
	return llcMisses, instrs, float64(llcMisses) / (float64(instrs) / 1000), nil
}

func oracleStreamN(w trace.Workload, lineBits uint, perTurn int) (lines []uint64, instrs uint64) {
	k := w.Kernel()
	cursors := make([]*warpCursor, 0, k.TotalWarps())
	for c := 0; c < k.NumCTAs; c++ {
		for wp := 0; wp < k.WarpsPerCTA; wp++ {
			cursors = append(cursors, &warpCursor{prog: w.NewProgram(c, wp)})
		}
	}
	liveCount := len(cursors)
	for liveCount > 0 {
		for _, cur := range cursors {
			if cur.done {
				continue
			}
			for b := 0; b < perTurn; b++ {
				in, ok := cur.nextMem(&instrs)
				if !ok {
					liveCount--
					break
				}
				lines = append(lines, in.Addr>>lineBits)
			}
		}
	}
	return lines, instrs
}

// sweepWorkers are the replay bounds every oracle comparison runs at:
// sequential, the two-core default of the CI host, one goroutine per
// standard configuration.
var sweepWorkers = []int{1, 2, 5}

// holdToOracle asserts that the sweep of w over cfgs equals the oracle in
// LLC misses, instruction total and MPKI, at every worker bound.
func holdToOracle(t *testing.T, w trace.Workload, cfgs []config.SystemConfig) {
	t.Helper()
	tr, err := extract(w)
	if err != nil {
		t.Fatalf("%s: extract: %v", w.Name(), err)
	}
	want := Curve{}
	for _, cfg := range cfgs {
		misses, instrs, mpki, err := oracleRun(w, cfg)
		if err != nil {
			t.Fatalf("%s on %s: oracle: %v", w.Name(), cfg.Name, err)
		}
		if tr.instrs != instrs {
			t.Fatalf("%s: extracted %d instructions, oracle counted %d", w.Name(), tr.instrs, instrs)
		}
		if got := tr.replay(cfg); got != misses {
			t.Errorf("%s on %s: %d LLC misses, oracle %d", w.Name(), cfg.Name, got, misses)
		}
		want.Points = append(want.Points, Point{CapacityBytes: cfg.LLCSizeBytes, MPKI: mpki})
	}
	for _, workers := range sweepWorkers {
		got, err := FunctionalSweepParallel(w, cfgs, workers)
		if err != nil {
			t.Fatalf("%s, %d workers: %v", w.Name(), workers, err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%s, %d workers: %d points, want %d", w.Name(), workers, len(got.Points), len(want.Points))
		}
		for i, p := range got.Points {
			if p.CapacityBytes != want.Points[i].CapacityBytes || math.Float64bits(p.MPKI) != math.Float64bits(want.Points[i].MPKI) {
				t.Errorf("%s, %d workers, point %d: %+v, oracle %+v", w.Name(), workers, i, p, want.Points[i])
			}
		}
	}
}

// TestSweepMatchesOracleOnSuite holds every strong-scaling benchmark's curve
// over the standard configurations to the oracle. The whole suite costs the
// old sweep once per benchmark, so -short (the race gate, ~10x slower) takes
// the cheapest one and leaves the variety to the generated cases.
func TestSweepMatchesOracleOnSuite(t *testing.T) {
	for _, b := range workloads.All() {
		if testing.Short() && b.Name != "ht" {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			holdToOracle(t, b.Workload, config.StandardConfigs())
		})
	}
}

// randomPhases draws a phase list that visits every corner of PhaseProgram:
// pure-compute phases (nil generator), skipped phases (N <= 0), phases that
// end inside a group, stores and BypassL1 accesses. It is a pure function of
// seed, as Workload.NewProgram requires.
func randomPhases(seed int64) []trace.Phase {
	rng := rand.New(rand.NewSource(seed))
	phases := make([]trace.Phase, rng.Intn(6))
	for i := range phases {
		ph := trace.Phase{N: rng.Intn(40) - 3, ComputePer: rng.Intn(5)}
		switch rng.Intn(4) {
		case 0: // pure compute
		case 1:
			ph.Gen = trace.NewRandGen(uint64(rng.Intn(4))<<14, 128, 1<<14, uint64(seed)+uint64(i))
		default:
			ph.Gen = &trace.SeqGen{Base: uint64(rng.Intn(4)) << 14, Start: uint64(rng.Intn(64)) * 128, Stride: 128, Extent: 1 << uint(10+rng.Intn(6))}
		}
		ph.Store = rng.Intn(4) == 0
		if rng.Intn(3) == 0 {
			ph.Flags = trace.BypassL1
		}
		phases[i] = ph
	}
	return phases
}

// smallConfig is a valid system small enough for a few hundred accesses to
// evict from both cache levels. The tests pass slice counts that are not
// powers of two as well, which the standard configurations never do.
func smallConfig(sms, slices int, llcBytes int64) config.SystemConfig {
	c := config.Baseline128()
	c.Name = fmt.Sprintf("small-%dsm-%dB", sms, llcBytes)
	c.NumSMs = sms
	c.L1SizeBytes = 512
	c.L1Ways = 2
	c.LLCSlices = slices
	c.LLCWays = 4
	c.LLCSizeBytes = llcBytes
	return c
}

// TestSweepMatchesOracleOnGeneratedCases is the same equality on random
// grids of random phase programs: 1..7 SMs, CTA counts mostly not divisible
// by the SM count, warps with no memory access at all.
func TestSweepMatchesOracleOnGeneratedCases(t *testing.T) {
	for c := int64(0); c < 60; c++ {
		rng := rand.New(rand.NewSource(c))
		spec := trace.KernelSpec{NumCTAs: 1 + rng.Intn(23), WarpsPerCTA: 1 + rng.Intn(4)}
		seed := c
		w := &trace.FuncWorkload{
			WName: fmt.Sprintf("gen-%d", c),
			Spec:  spec,
			Factory: func(cta, warp int) trace.Program {
				return trace.NewPhaseProgram(randomPhases(seed<<20 + int64(cta)<<8 + int64(warp))...)
			},
		}
		if total, _ := trace.InstructionCount(w); total == 0 {
			continue // the sweep rejects it, as the oracle does
		}
		sms := 1 + rng.Intn(7)
		cfgs := []config.SystemConfig{
			smallConfig(sms, 3, 3*4*128),
			smallConfig(sms+1, 5, 5*8*128),
			smallConfig(sms, 4, 4*64*128),
		}
		holdToOracle(t, w, cfgs)

		for _, perTurn := range []int{1, 3} {
			want, wantInstrs := oracleStreamN(w, 7, perTurn)
			got, gotInstrs, err := InterleavedStreamN(w, 128, perTurn)
			if err != nil {
				t.Fatal(err)
			}
			if gotInstrs != wantInstrs || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: interleaved stream (burst %d) differs from the oracle's: %d lines / %d instrs, want %d / %d",
					w.Name(), perTurn, len(got), gotInstrs, len(want), wantInstrs)
			}
		}
	}
}

// opaqueProgram hides a PhaseProgram's type, so trace.NextMem has to fall
// back to its Next loop.
type opaqueProgram struct{ p trace.Program }

func (o opaqueProgram) Next() (trace.Instr, bool) { return o.p.Next() }

// TestSweepOnForeignProgramType covers the extraction's fallback: a Program
// that is not a *PhaseProgram gives the same curve.
func TestSweepOnForeignProgramType(t *testing.T) {
	inner := seqWorkload(9, 2, 120, 1<<16)
	w := &trace.FuncWorkload{
		WName:   "opaque",
		Spec:    inner.Kernel(),
		Factory: func(cta, warp int) trace.Program { return opaqueProgram{inner.NewProgram(cta, warp)} },
	}
	cfgs := []config.SystemConfig{smallConfig(4, 3, 3*4*128), smallConfig(5, 4, 4*64*128)}
	holdToOracle(t, w, cfgs)
	a, err := FunctionalSweep(inner, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FunctionalSweep(w, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("opaque programs changed the curve: %+v vs %+v", b, a)
	}
}
