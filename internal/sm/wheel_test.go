package sm

import (
	"fmt"
	"math/rand"
	"testing"

	"gpuscale/internal/sched"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// wakeDistances are the load latencies scriptedMem draws from: the short
// latencies that dominate real runs, DRAM-like round trips (which the wheel
// holds, up to sched.Horizon-1), both sides of the wheel/heap hand-off
// (sched.Horizon and sched.Horizon+1 take the heap), and beyond.
var wakeDistances = []int64{1, 1, 2, 4, 4, 30, 64, 177, 300, 310, 420, sched.Horizon - 1, sched.Horizon, sched.Horizon + 1, 2*sched.Horizon - 1, 1000}

// refSM is the naive model of the warp scheduler the SM is checked against:
// blocked warps wait in one sched.Heap and are promoted in (wake-up cycle,
// warp) order — the structure and order the wheel replaced — and the next
// warp to issue is found by scanning every warp's key, with no ready queue,
// rank table or greedy-warp flag. Single issue; all warps launched up front.
type refSM struct {
	policy     Policy
	computeLat int64
	prog       []trace.Program
	readyAt    []int64
	launch     []int64
	lastIssue  []int64
	ready      []bool
	waitMem    []bool
	pending    *sched.Heap
	seq        int64
	current    int
	active     int // two-level: active fetch group
	live       int
	blockedMem int
	instrs     uint64
}

func newRefSM(policy Policy, computeLat int, progs []trace.Program) *refSM {
	n := len(progs)
	r := &refSM{policy: policy, computeLat: int64(computeLat), prog: progs, current: -1, live: n,
		readyAt: make([]int64, n), launch: make([]int64, n), lastIssue: make([]int64, n),
		ready: make([]bool, n), waitMem: make([]bool, n), pending: sched.NewHeap(n)}
	for i := range progs {
		r.launch[i], r.lastIssue[i], r.ready[i] = r.seq, r.seq, true
		r.seq++
	}
	return r
}

// pick returns the ready warp the policy issues next and, for the two-level
// scheduler, the fetch group it was found in; -1 if no warp is ready.
func (r *refSM) pick() (idx, group int) {
	oldest := func(key []int64, lo, hi int) int {
		best := -1
		for i := lo; i < hi && i < len(key); i++ {
			if r.ready[i] && (best < 0 || key[i] < key[best]) {
				best = i
			}
		}
		return best
	}
	switch r.policy {
	case GTO:
		if r.current >= 0 && r.ready[r.current] {
			return r.current, 0
		}
		return oldest(r.launch, 0, len(r.prog)), 0
	case LRR:
		return oldest(r.lastIssue, 0, len(r.prog)), 0
	default:
		nGroups := (len(r.prog) + uarch.TwoLevelGroupSize - 1) / uarch.TwoLevelGroupSize
		for k := 0; k < nGroups; k++ {
			g := (r.active + k) % nGroups
			if idx := oldest(r.lastIssue, g*uarch.TwoLevelGroupSize, (g+1)*uarch.TwoLevelGroupSize); idx >= 0 {
				return idx, g
			}
		}
		return -1, 0
	}
}

func (r *refSM) tick(now int64, mem MemPort) TickKind {
	for r.pending.Len() > 0 && r.pending.MinKey() <= now {
		idx, _ := r.pending.Pop()
		if r.waitMem[idx] {
			r.waitMem[idx] = false
			r.blockedMem--
		}
		r.ready[idx] = true
	}
	for {
		idx, group := r.pick()
		if idx < 0 {
			switch {
			case r.live == 0:
				return Idle
			case r.blockedMem > 0:
				return StallMem
			}
			return StallPipe
		}
		r.ready[idx], r.active = false, group
		in, ok := r.prog[idx].Next()
		if !ok {
			r.live--
			if r.current == idx {
				r.current = -1
			}
			continue
		}
		r.current = idx
		r.lastIssue[idx] = r.seq
		r.seq++
		r.instrs++
		switch in.Kind {
		case trace.Compute:
			r.readyAt[idx] = now + r.computeLat
		case trace.Load:
			r.readyAt[idx] = mem.Access(now, in)
			if r.readyAt[idx] <= now {
				r.readyAt[idx] = now + 1
			}
			r.waitMem[idx] = true
			r.blockedMem++
		case trace.Store:
			mem.Access(now, in)
			r.readyAt[idx] = now + 1
		}
		r.pending.Set(idx, r.readyAt[idx])
		return Issued
	}
}

func (r *refSM) fixPendingWake(idx int, readyAt int64) {
	r.readyAt[idx] = readyAt
	r.pending.Set(idx, readyAt)
}

func (r *refSM) nextEvent() (int64, bool) {
	if idx, _ := r.pick(); idx >= 0 || r.pending.Len() == 0 {
		return 0, false
	}
	return r.pending.MinKey(), true
}

// scriptedMem answers each load with a latency drawn from wakeDistances by a
// hash of the access, logs every access, and defers one load in three the
// way the sharded run loops do: the warp is parked at a provisional cycle —
// far-future or a few cycles out, so repairs go far -> near and near ->
// near — and the driver repairs it after the tick.
type scriptedMem struct {
	issuing func() int
	log     []memAccess
	fixWarp int // warp awaiting repair, -1 if none
	fixAt   int64
}

type memAccess struct {
	cycle int64
	kind  trace.Kind
	addr  uint64
}

func (m *scriptedMem) Access(now int64, in trace.Instr) int64 {
	h := (in.Addr>>7)*0x9e3779b97f4a7c15 + uint64(now)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	m.log = append(m.log, memAccess{now, in.Kind, in.Addr})
	at := now + wakeDistances[h%uint64(len(wakeDistances))]
	if in.Kind != trace.Load || h>>8%3 != 0 {
		return at
	}
	m.fixWarp, m.fixAt = m.issuing(), at
	if h>>16&1 == 0 {
		return 1 << 62
	}
	return now + 3
}

// schedulers maps each Policy to the uarch scheduler that selects it.
var schedulers = map[Policy]uarch.Scheduler{GTO: uarch.SchedGTO, LRR: uarch.SchedLRR, TwoLevel: uarch.SchedTwoLevel}

// TestPendingWakeMatchesReferenceSM runs the SM and the naive reference in
// lockstep on mixed compute / load / store warps under every scheduling
// policy and demands the same classification at every tick, the same next
// wake-up, and the same sequence of memory accesses (cycle, kind, address —
// the address names the warp). This is the check that promotion order is
// invisible: the reference promotes in heap order, the wheel in slot order.
// The clock advances as the run loops advance it (next cycle while a warp is
// ready or one issued, else straight to the next wake-up) and, one stall in
// eight, overshoots the wake-up: Tick is specified for any non-decreasing
// clock, draining every wake-up in (last tick, now], and the reference
// pins that too. 80 warps put two words in each wheel slot.
func TestPendingWakeMatchesReferenceSM(t *testing.T) {
	for _, policy := range []Policy{GTO, LRR, TwoLevel} {
		for _, nWarps := range []int{7, 48, 80} {
			t.Run(fmt.Sprintf("%v/%dwarps", policy, nWarps), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(nWarps)))
				progs := func() []trace.Program {
					ps := make([]trace.Program, nWarps)
					for i := range ps {
						g := &trace.SeqGen{Base: uint64(i) << 24, Stride: 128, Extent: 1 << 20}
						st := &trace.SeqGen{Base: uint64(i)<<24 | 1<<23, Stride: 128, Extent: 1 << 20}
						ps[i] = trace.NewPhaseProgram(
							trace.Phase{N: 30 + i%17, ComputePer: i % 4, Gen: g},
							trace.Phase{N: 5, Gen: st, Store: true},
							trace.Phase{N: 20, ComputePer: 1 + i%2, Gen: g})
					}
					return ps
				}
				s, err := NewVariant(nWarps, 1, 4, uarch.Variant{Scheduler: schedulers[policy]})
				if err != nil {
					t.Fatal(err)
				}
				s.LaunchCTA(progs())
				ref := newRefSM(policy, 4, progs())
				sMem := &scriptedMem{issuing: s.IssuingWarp, fixWarp: -1}
				rMem := &scriptedMem{issuing: func() int { return ref.current }, fixWarp: -1}

				now := int64(0)
				for ticks := 0; s.LiveWarps() > 0 || ref.live > 0; ticks++ {
					if ticks > 1<<20 {
						t.Fatal("did not drain")
					}
					got, want := s.Tick(now, sMem), ref.tick(now, rMem)
					if got != want {
						t.Fatalf("tick %d at cycle %d: %v, reference %v", ticks, now, got, want)
					}
					if sMem.fixWarp != rMem.fixWarp || sMem.fixAt != rMem.fixAt {
						t.Fatalf("cycle %d: deferred warp %d@%d, reference %d@%d", now, sMem.fixWarp, sMem.fixAt, rMem.fixWarp, rMem.fixAt)
					}
					if sMem.fixWarp >= 0 {
						s.FixPendingWake(sMem.fixWarp, sMem.fixAt)
						ref.fixPendingWake(rMem.fixWarp, rMem.fixAt)
						sMem.fixWarp, rMem.fixWarp = -1, -1
					}
					at, ok := s.NextEvent()
					if rat, rok := ref.nextEvent(); at != rat || ok != rok {
						t.Fatalf("cycle %d: NextEvent = %d,%v, reference %d,%v", now, at, ok, rat, rok)
					}
					switch {
					case got == Issued || !ok:
						now++
					case rng.Intn(8) == 0:
						now = at + 1 + int64(rng.Intn(2*sched.Horizon)) // late tick
					default:
						now = at
					}
				}
				if s.Stats().Instructions != ref.instrs {
					t.Errorf("issued %d instructions, reference %d", s.Stats().Instructions, ref.instrs)
				}
				if len(sMem.log) != len(rMem.log) {
					t.Fatalf("%d memory accesses, reference %d", len(sMem.log), len(rMem.log))
				}
				for i := range sMem.log {
					if sMem.log[i] != rMem.log[i] {
						t.Fatalf("access %d: %+v, reference %+v", i, sMem.log[i], rMem.log[i])
					}
				}
			})
		}
	}
}

// latencyMem answers loads with latencies cycling through a fixed list.
type latencyMem struct {
	lats []int64
	i    int
}

func (m *latencyMem) Access(now int64, in trace.Instr) int64 {
	m.i++
	return now + m.lats[m.i%len(m.lats)]
}

// BenchmarkPendingWake measures one issuing Tick of a fully occupied 48-warp
// SM — pick a warp, issue, park it, promote whatever came due — which is
// where the pending structure is paid for: once in, once out, per
// instruction. "compute" parks every warp 4 cycles out; "near" is loads that
// all return within 64 cycles (L1/LLC hits); "mixed" sends every other load
// on a DRAM-length round trip; "dram" sends every load 256-511 cycles out,
// the distance band that fell past a 64-cycle wheel into the far heap. The
// clock moves as the event loop moves it, so nearly every tick issues.
func BenchmarkPendingWake(b *testing.B) {
	for _, c := range []struct {
		name       string
		computePer int
		lats       []int64
	}{
		{"compute", 1 << 30, nil},
		{"near", 2, []int64{4, 34, 50}},
		{"mixed", 2, []int64{34, 310, 50, 420}},
		{"dram", 2, []int64{256, 310, 377, 420, 511}},
	} {
		b.Run(c.name, func(b *testing.B) {
			const nWarps = 48
			progs := make([]trace.Program, nWarps)
			for i := range progs {
				g := &trace.SeqGen{Base: uint64(i) << 24, Stride: 128, Extent: 1 << 20}
				progs[i] = trace.NewPhaseProgram(trace.Phase{N: b.N/nWarps + 64, ComputePer: c.computePer, Gen: g})
			}
			s := MustNew(nWarps, 1, 4)
			s.LaunchCTA(progs)
			mem := &latencyMem{lats: c.lats}
			b.ReportAllocs()
			b.ResetTimer()
			now := int64(0)
			for i := 0; i < b.N; i++ {
				if s.Tick(now, mem) == Issued {
					now++
				} else if at, ok := s.NextEvent(); ok {
					now = at
				} else {
					now++
				}
			}
		})
	}
}
