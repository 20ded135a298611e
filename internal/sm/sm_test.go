package sm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpuscale/internal/sched"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// fixedMem is a MemPort with a constant latency.
type fixedMem struct {
	lat      int64
	accesses int
	stores   int
}

func (m *fixedMem) Access(now int64, in trace.Instr) int64 {
	m.accesses++
	if in.Kind == trace.Store {
		m.stores++
	}
	return now + m.lat
}

func computeProg(n int) trace.Program {
	return trace.NewPhaseProgram(trace.Phase{N: n})
}

func loadProg(n int) trace.Program {
	g := &trace.SeqGen{Base: 0, Stride: 128, Extent: 1 << 30}
	return trace.NewPhaseProgram(trace.Phase{N: n, ComputePer: 0, Gen: g})
}

// run drives the SM until the grid drains, returning total cycles.
func run(t *testing.T, s *SM, mem MemPort, maxCycles int64) int64 {
	t.Helper()
	now := int64(0)
	for s.LiveWarps() > 0 {
		if now > maxCycles {
			t.Fatalf("SM did not drain within %d cycles", maxCycles)
		}
		s.Tick(now, mem)
		now++
	}
	return now
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 4); err == nil {
		t.Error("zero warps accepted")
	}
	if _, err := New(1, 0, 4); err == nil {
		t.Error("zero CTAs accepted")
	}
	if _, err := New(1, 1, 0); err == nil {
		t.Error("zero latency accepted")
	}
}

func TestTickKindString(t *testing.T) {
	for k, want := range map[TickKind]string{Issued: "issued", StallMem: "stall-mem", StallPipe: "stall-pipe", Idle: "idle", TickKind(9): "TickKind(9)"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestCanAcceptLimits(t *testing.T) {
	s := MustNew(4, 1, 4)
	if !s.CanAccept(4) {
		t.Error("should accept 4 warps")
	}
	if s.CanAccept(5) {
		t.Error("accepted more warps than capacity")
	}
	s.LaunchCTA([]trace.Program{computeProg(1)})
	if s.CanAccept(1) {
		t.Error("accepted a CTA with no free slots")
	}
}

func TestLaunchWithoutCanAcceptPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s := MustNew(1, 1, 4)
	s.LaunchCTA([]trace.Program{computeProg(1), computeProg(1)})
}

func TestSingleWarpComputeTiming(t *testing.T) {
	// 10 dependent compute instructions at latency 4: one issue every 4
	// cycles -> ~40 cycles, IPC 0.25.
	s := MustNew(4, 1, 4)
	s.LaunchCTA([]trace.Program{computeProg(10)})
	cycles := run(t, s, &fixedMem{lat: 1}, 1000)
	if cycles < 37 || cycles > 45 {
		t.Errorf("cycles = %d, want ≈40", cycles)
	}
	st := s.Stats()
	if st.Instructions != 10 {
		t.Errorf("instructions = %d, want 10", st.Instructions)
	}
	if st.MemStallCycles != 0 {
		t.Errorf("mem stalls = %d, want 0", st.MemStallCycles)
	}
	if st.PipeStallCycles == 0 {
		t.Error("expected pipeline stalls from dependent latency")
	}
}

func TestMultiWarpLatencyHiding(t *testing.T) {
	// 4 warps of dependent compute at latency 4 interleave to IPC ≈ 1.
	s := MustNew(4, 1, 4)
	s.LaunchCTA([]trace.Program{computeProg(25), computeProg(25), computeProg(25), computeProg(25)})
	cycles := run(t, s, &fixedMem{lat: 1}, 1000)
	if cycles > 110 {
		t.Errorf("cycles = %d, want ≈100 (latency hidden)", cycles)
	}
	if ipc := float64(s.Stats().Instructions) / float64(cycles); ipc < 0.9 {
		t.Errorf("IPC = %v, want ≈1", ipc)
	}
}

func TestMemStallClassification(t *testing.T) {
	// One warp issuing loads with 100-cycle latency: almost all cycles are
	// memory stalls and FMem approaches 1.
	s := MustNew(4, 1, 4)
	s.LaunchCTA([]trace.Program{loadProg(5)})
	mem := &fixedMem{lat: 100}
	run(t, s, mem, 10000)
	st := s.Stats()
	if st.MemStallCycles == 0 {
		t.Fatal("no memory stalls recorded")
	}
	if f := st.FMem(); f < 0.9 {
		t.Errorf("FMem = %v, want > 0.9", f)
	}
	if mem.accesses != 5 {
		t.Errorf("mem accesses = %d, want 5", mem.accesses)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	g := &trace.SeqGen{Base: 0, Stride: 128, Extent: 1 << 30}
	prog := trace.NewPhaseProgram(trace.Phase{N: 10, ComputePer: 0, Gen: g, Store: true})
	s := MustNew(4, 1, 4)
	s.LaunchCTA([]trace.Program{prog})
	mem := &fixedMem{lat: 500}
	cycles := run(t, s, mem, 1000)
	if cycles > 20 {
		t.Errorf("stores blocked the warp: %d cycles for 10 stores", cycles)
	}
	if mem.stores != 10 {
		t.Errorf("stores seen = %d, want 10", mem.stores)
	}
}

func TestCTACompletionFreesSlot(t *testing.T) {
	s := MustNew(8, 2, 4)
	s.LaunchCTA([]trace.Program{computeProg(3)})
	s.LaunchCTA([]trace.Program{computeProg(30)})
	if s.FreeCTASlots() != 0 {
		t.Fatal("slots should be exhausted")
	}
	mem := &fixedMem{lat: 1}
	now := int64(0)
	for s.FreeCTASlots() == 0 {
		s.Tick(now, mem)
		now++
		if now > 1000 {
			t.Fatal("first CTA never completed")
		}
	}
	if s.Stats().CTAsCompleted != 1 {
		t.Errorf("CTAsCompleted = %d, want 1", s.Stats().CTAsCompleted)
	}
	if !s.CanAccept(1) {
		t.Error("freed slot not reusable")
	}
}

func TestIdleWhenEmpty(t *testing.T) {
	s := MustNew(4, 1, 4)
	if kind := s.Tick(0, &fixedMem{lat: 1}); kind != Idle {
		t.Errorf("empty SM tick = %v, want Idle", kind)
	}
}

func TestNextEvent(t *testing.T) {
	s := MustNew(4, 1, 4)
	if _, ok := s.NextEvent(); ok {
		t.Error("empty SM reported event")
	}
	s.LaunchCTA([]trace.Program{loadProg(2)})
	if _, ok := s.NextEvent(); ok {
		t.Error("ready warp should inhibit skipping")
	}
	s.Tick(0, &fixedMem{lat: 100})
	ev, ok := s.NextEvent()
	if !ok || ev != 100 {
		t.Errorf("NextEvent = %d,%v, want 100,true", ev, ok)
	}
}

func TestAccrueWeights(t *testing.T) {
	s := MustNew(4, 1, 4)
	s.accrue(Issued, 2)
	s.accrue(StallMem, 3)
	s.accrue(StallPipe, 5)
	s.accrue(Idle, 7)
	st := s.Stats()
	if st.IssuedCycles != 2 || st.MemStallCycles != 3 || st.PipeStallCycles != 5 || st.IdleCycles != 7 {
		t.Errorf("accrued counters wrong: %+v", st)
	}
	if st.TotalCycles() != 17 {
		t.Errorf("TotalCycles = %d, want 17", st.TotalCycles())
	}
}

func TestFMemZeroWhenNoCycles(t *testing.T) {
	var st Stats
	if st.FMem() != 0 {
		t.Error("FMem of empty stats should be 0")
	}
}

func TestGTOPrefersOldestWarp(t *testing.T) {
	// Two warps with loads; the older warp (launched first) should issue
	// first whenever both are ready.
	s := MustNew(4, 1, 4)
	order := []uint64{}
	mem := &recordingMem{lat: 1, order: &order}
	s.LaunchCTA([]trace.Program{
		trace.NewPhaseProgram(trace.Phase{N: 1, Gen: &trace.SeqGen{Base: 1000, Stride: 128, Extent: 1 << 20}}),
		trace.NewPhaseProgram(trace.Phase{N: 1, Gen: &trace.SeqGen{Base: 2000, Stride: 128, Extent: 1 << 20}}),
	})
	run(t, s, mem, 100)
	if len(order) != 2 || order[0] != 1000 || order[1] != 2000 {
		t.Errorf("issue order = %v, want [1000 2000]", order)
	}
}

type recordingMem struct {
	lat   int64
	order *[]uint64
}

func (m *recordingMem) Access(now int64, in trace.Instr) int64 {
	*m.order = append(*m.order, in.Addr)
	return now + m.lat
}

// deferredMem mimics the sharded MCM run loop's memory port: a load gets a
// far-future provisional completion (and the issuing warp is recorded via
// IssuingWarp), and the true completion is applied with FixPendingWake
// before the next cycle's tick.
type deferredMem struct {
	lat     int64
	sm      *SM
	warp    int
	issued  int64
	pending bool
}

func (m *deferredMem) Access(now int64, in trace.Instr) int64 {
	if in.Kind == trace.Store {
		return now + m.lat
	}
	m.warp = m.sm.IssuingWarp()
	m.issued = now
	m.pending = true
	return 1 << 62
}

// TestDeferredWakeRepairMatchesImmediate drives the same warp mix through
// the immediate port and through the defer-then-repair protocol; drain
// time, statistics, and issue behaviour must be identical.
func TestDeferredWakeRepairMatchesImmediate(t *testing.T) {
	for _, lat := range []int64{1, 4, 37, 200} {
		launch := func(s *SM) {
			s.LaunchCTA([]trace.Program{loadProg(6), loadProg(4), computeProg(5)})
		}
		ref := MustNew(8, 2, 4)
		launch(ref)
		refCycles := run(t, ref, &fixedMem{lat: lat}, 1<<20)

		s := MustNew(8, 2, 4)
		launch(s)
		m := &deferredMem{lat: lat, sm: s}
		now := int64(0)
		for s.LiveWarps() > 0 {
			if now > 1<<20 {
				t.Fatalf("lat %d: deferred SM did not drain", lat)
			}
			if m.pending {
				m.pending = false
				rdy := m.issued + m.lat
				if rdy <= m.issued {
					rdy = m.issued + 1
				}
				s.FixPendingWake(m.warp, rdy)
			}
			s.Tick(now, m)
			now++
		}
		if now != refCycles {
			t.Errorf("lat %d: deferred drain %d cycles, immediate %d", lat, now, refCycles)
		}
		if s.Stats() != ref.Stats() {
			t.Errorf("lat %d: stats diverged:\ndeferred  %+v\nimmediate %+v", lat, s.Stats(), ref.Stats())
		}
	}
}

func TestDrainAlwaysTerminatesProperty(t *testing.T) {
	// Property: any mix of small programs drains, and instruction counts
	// add up.
	f := func(nWarps uint8, nInstr uint8, memLat uint8) bool {
		w := int(nWarps)%6 + 1
		n := int(nInstr)%20 + 1
		s := MustNew(8, 2, 4)
		progs := make([]trace.Program, w)
		for i := range progs {
			progs[i] = loadProg(n)
		}
		s.LaunchCTA(progs)
		mem := &fixedMem{lat: int64(memLat) + 1}
		now := int64(0)
		for s.LiveWarps() > 0 {
			if now > 1_000_000 {
				return false
			}
			s.Tick(now, mem)
			now++
		}
		return s.Stats().Instructions == uint64(w*n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if GTO.String() != "gto" || LRR.String() != "lrr" || TwoLevel.String() != "two-level" {
		t.Error("policy strings wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy string wrong")
	}
}

func TestLRRRotatesAcrossWarps(t *testing.T) {
	// Three compute-only warps under LRR with latency 1: issues rotate
	// round-robin rather than sticking with one warp.
	s, err := NewVariant(4, 1, 1, uarch.Variant{Scheduler: uarch.SchedLRR})
	if err != nil {
		t.Fatal(err)
	}
	var order []uint64
	mem := &recordingMem{lat: 1, order: &order}
	g0 := &trace.SeqGen{Base: 0, Stride: 128, Extent: 1 << 20}
	g1 := &trace.SeqGen{Base: 1 << 30, Stride: 128, Extent: 1 << 20}
	s.LaunchCTA([]trace.Program{
		trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 0, Gen: g0}),
		trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 0, Gen: g1}),
	})
	now := int64(0)
	for s.LiveWarps() > 0 && now < 1000 {
		s.Tick(now, mem)
		now++
	}
	if len(order) != 8 {
		t.Fatalf("issued %d memory ops, want 8", len(order))
	}
	// Under LRR the two warps alternate strictly (both always ready with
	// 1-cycle memory latency).
	for i := 1; i < len(order); i++ {
		sameRegion := (order[i] >= 1<<30) == (order[i-1] >= 1<<30)
		if sameRegion {
			t.Fatalf("LRR did not rotate at issue %d: %v", i, order)
		}
	}
}

func TestNewVariantValidation(t *testing.T) {
	if _, err := NewVariant(4, 1, 4, uarch.Variant{Scheduler: "greedy"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := NewVariant(4, 1, 4, uarch.Variant{IssueWidth: uarch.MaxIssueWidth + 1}); err == nil {
		t.Error("out-of-range issue width accepted")
	}
	if _, err := NewVariant(0, 1, 4, uarch.Variant{}); err == nil {
		t.Error("zero warps accepted")
	}
	if _, err := NewVariant(4, 1, 4, uarch.Variant{Scheduler: uarch.SchedTwoLevel}); err != nil {
		t.Errorf("two-level construction failed: %v", err)
	}
}

// TestVariantDefaultMatchesNew pins satellite contract behind the
// constructor dedup: an explicitly-default variant must behave exactly like
// New on a mixed workload — same drain time, same statistics.
func TestVariantDefaultMatchesNew(t *testing.T) {
	launch := func(s *SM) {
		s.LaunchCTA([]trace.Program{loadProg(6), computeProg(9), loadProg(3)})
	}
	ref := MustNew(8, 2, 4)
	launch(ref)
	refCycles := run(t, ref, &fixedMem{lat: 37}, 1<<20)

	s := MustNewVariant(8, 2, 4, uarch.Variant{
		Scheduler: uarch.SchedGTO, L1: uarch.L1Line, NoC: uarch.RouteXbar, IssueWidth: 1})
	launch(s)
	cycles := run(t, s, &fixedMem{lat: 37}, 1<<20)
	if cycles != refCycles || s.Stats() != ref.Stats() {
		t.Errorf("explicit-default variant diverged from New: %d/%d cycles\n variant %+v\n default %+v",
			cycles, refCycles, s.Stats(), ref.Stats())
	}
}

// TestTwoLevelStaysInActiveGroup pins the two-level scheduler's defining
// behaviour: warp slots 0–7 form fetch group 0 and slot 8 group 1, and with
// group 0 always holding a ready warp, slot 8's accesses come strictly after
// every group-0 warp has retired.
func TestTwoLevelStaysInActiveGroup(t *testing.T) {
	s := MustNewVariant(16, 2, 1, uarch.Variant{Scheduler: uarch.SchedTwoLevel})
	var order []uint64
	mem := &recordingMem{lat: 1, order: &order}
	regionA := &trace.SeqGen{Base: 0, Stride: 128, Extent: 1 << 20}
	regionB := &trace.SeqGen{Base: 1 << 30, Stride: 128, Extent: 1 << 20}
	regionC := &trace.SeqGen{Base: 1 << 40, Stride: 128, Extent: 1 << 20}
	progs := []trace.Program{
		trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 0, Gen: regionA}),
		trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 0, Gen: regionB}),
	}
	for i := 2; i < 8; i++ {
		progs = append(progs, computeProg(1))
	}
	progs = append(progs, trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 0, Gen: regionC}))
	s.LaunchCTA(progs)
	run(t, s, mem, 1000)
	if len(order) != 12 {
		t.Fatalf("issued %d memory ops, want 12", len(order))
	}
	for i, addr := range order[:8] {
		if addr >= 1<<40 {
			t.Fatalf("group-1 warp issued at position %d while group 0 had ready warps: %v", i, order)
		}
	}
	for i, addr := range order[8:] {
		if addr < 1<<40 {
			t.Fatalf("group-0 access at position %d after the group drained: %v", 8+i, order)
		}
	}
}

// TestTwoLevelRotatesWithinGroup verifies the within-group LRR re-keying:
// two always-ready warps in the same fetch group alternate strictly.
func TestTwoLevelRotatesWithinGroup(t *testing.T) {
	s := MustNewVariant(8, 1, 1, uarch.Variant{Scheduler: uarch.SchedTwoLevel})
	var order []uint64
	mem := &recordingMem{lat: 1, order: &order}
	g0 := &trace.SeqGen{Base: 0, Stride: 128, Extent: 1 << 20}
	g1 := &trace.SeqGen{Base: 1 << 30, Stride: 128, Extent: 1 << 20}
	s.LaunchCTA([]trace.Program{
		trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 0, Gen: g0}),
		trace.NewPhaseProgram(trace.Phase{N: 4, ComputePer: 0, Gen: g1}),
	})
	now := int64(0)
	for s.LiveWarps() > 0 && now < 1000 {
		s.Tick(now, mem)
		now++
	}
	if len(order) != 8 {
		t.Fatalf("issued %d memory ops, want 8", len(order))
	}
	for i := 1; i < len(order); i++ {
		if (order[i] >= 1<<30) == (order[i-1] >= 1<<30) {
			t.Fatalf("two-level did not rotate within the group at issue %d: %v", i, order)
		}
	}
}

// TestIssueWidthScalesThroughput: 8 independent dependent-latency-4 compute
// warps saturate one issue slot exactly (IPC 1); doubling the width to 2
// should roughly double throughput (IPC 2, warps allowing).
func TestIssueWidthScalesThroughput(t *testing.T) {
	launch := func(s *SM) {
		progs := make([]trace.Program, 8)
		for i := range progs {
			progs[i] = computeProg(25)
		}
		s.LaunchCTA(progs)
	}
	single := MustNewVariant(8, 1, 4, uarch.Variant{})
	launch(single)
	c1 := run(t, single, &fixedMem{lat: 1}, 10000)

	dual := MustNewVariant(8, 1, 4, uarch.Variant{IssueWidth: 2})
	launch(dual)
	c2 := run(t, dual, &fixedMem{lat: 1}, 10000)

	if ipc := float64(single.Stats().Instructions) / float64(c1); ipc < 0.9 {
		t.Errorf("width-1 IPC = %v, want ≈1", ipc)
	}
	if ipc := float64(dual.Stats().Instructions) / float64(c2); ipc < 1.8 {
		t.Errorf("width-2 IPC = %v, want ≈2", ipc)
	}
	if c2*3 > c1*2 {
		t.Errorf("width 2 took %d cycles vs %d at width 1; expected a near-2x cut", c2, c1)
	}
}

func TestResidentCTAs(t *testing.T) {
	s := MustNew(8, 2, 4)
	if s.ResidentCTAs() != 0 {
		t.Errorf("ResidentCTAs = %d, want 0", s.ResidentCTAs())
	}
	s.LaunchCTA([]trace.Program{computeProg(1)})
	if s.ResidentCTAs() != 1 {
		t.Errorf("ResidentCTAs = %d, want 1", s.ResidentCTAs())
	}
}

// cycleCounts is the cycle-classification part of Stats.
func cycleCounts(st Stats) [4]uint64 {
	return [4]uint64{st.IssuedCycles, st.MemStallCycles, st.PipeStallCycles, st.IdleCycles}
}

// TestCycleAccountingMatchesEager drives an SM the way the run loops do —
// ticked at its next wake-up, at the next cycle while it issues, now and
// then late or on a cycle it had nothing due; CTAs launched between ticks,
// settled first; warm-up resets on cycles it ticked and on cycles it did
// not; counters read mid-run — and classifies every cycle eagerly beside
// it: a ticked cycle by what Tick returned, any other by StallKind() at
// that cycle. The SM's lazy accounting must equal the eager counts whenever
// it is settled, and TotalCycles() the cycles since the last reset.
func TestCycleAccountingMatchesEager(t *testing.T) {
	var resets [2]int // warm-up resets on un-ticked, ticked cycles
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		warpsPer := 1 + rng.Intn(8)
		s := MustNewVariant(warpsPer*(1+rng.Intn(4)), 4, 1+rng.Intn(6), uarch.Variant{IssueWidth: 1 + rng.Intn(2)})
		lats := make([]int64, 1+rng.Intn(4))
		for i := range lats {
			lats[i] = wakeDistances[rng.Intn(len(wakeDistances))]
		}
		mem := &latencyMem{lats: lats}
		ctas := 4 + rng.Intn(12)
		cta := func(c int) []trace.Program {
			ps := make([]trace.Program, warpsPer)
			for i := range ps {
				g := &trace.SeqGen{Base: uint64(c*warpsPer+i) << 24, Stride: 128, Extent: 1 << 20}
				ps[i] = trace.NewPhaseProgram(
					trace.Phase{N: 5 + rng.Intn(40), ComputePer: rng.Intn(4), Gen: g},
					trace.Phase{N: rng.Intn(6), Gen: g, Store: true})
			}
			return ps
		}

		var want [4]uint64
		var windowStart int64
		check := func(now int64) {
			t.Helper()
			s.Settle(now)
			if got := cycleCounts(s.Stats()); got != want {
				t.Fatalf("seed %d, cycle %d: counters %v, eager %v", seed, now, got, want)
			}
			if got := s.Stats().TotalCycles(); got != uint64(now-windowStart) {
				t.Fatalf("seed %d: TotalCycles() = %d after Settle(%d), window starts at %d", seed, got, now, windowStart)
			}
		}
		launched := 0
		nextTick := int64(-1) // no pending wake-up until a launch
		now := int64(0)
		for idleFor := 0; idleFor < 50; now++ {
			if now > 1<<20 {
				t.Fatalf("seed %d: did not drain", seed)
			}
			if rng.Intn(40) == 0 {
				check(now) // a reader between cycles (stats, a sample)
			}
			if launched < ctas && s.CanAccept(warpsPer) && rng.Intn(3) == 0 {
				s.Settle(now)
				s.LaunchCTA(cta(launched))
				launched++
				nextTick = now // launched warps are ready at once
			}
			kind := s.StallKind()
			ticked := now == nextTick || rng.Intn(20) == 0
			if ticked {
				kind = s.Tick(now, mem)
				nextTick = -1
				if kind == Issued || s.HasReady() {
					nextTick = now + 1
				} else if at, ok := s.NextEvent(); ok {
					nextTick = at
					if rng.Intn(6) == 0 {
						nextTick += rng.Int63n(2 * sched.Horizon) // late
					}
				}
			}
			if rng.Intn(150) == 0 {
				s.ResetStats(now)
				want, windowStart = [4]uint64{}, now
				if ticked {
					resets[1]++
				} else {
					resets[0]++
				}
			}
			want[kind]++
			if launched == ctas && s.LiveWarps() == 0 {
				idleFor++
			}
		}
		check(now)
	}
	if resets[0] == 0 || resets[1] == 0 {
		t.Fatalf("resets on un-ticked/ticked cycles: %v; both paths must run", resets)
	}
}
