// Package sm models a streaming multiprocessor: resident CTAs and warps, a
// configurable warp scheduler (Greedy-Then-Oldest by default, loose
// round-robin and fetch-group two-level as microarchitecture variants, see
// internal/uarch), a configurable issue width, dependent-issue latencies,
// and — crucially for the scale-model predictor — classification of every
// cycle in which the SM cannot issue. The paper's cliff-region formula
// (Eq. 3) divides by 1−f_mem, where f_mem is the fraction of cycles an SM
// fetches nothing because every blocked warp is waiting on memory; this
// package is where that accounting lives.
//
// The per-instruction path touches no ordered structure. A warp that issues
// is parked in a wakeWheel by its wake-up cycle (two stores for anything
// nearer than the wheel's 512-cycle horizon, DRAM round trips included)
// and, when that cycle is ticked, promoted into a readyQueue that pops by
// scheduling rank. Only wake-ups beyond the horizon pay for a heap. Tick
// must be called with a non-decreasing clock; the run loops in fact tick an
// SM no later than its earliest pending wake-up (NextEvent is what they
// schedule it by), which is the case the wheel is fast for, but a late Tick
// promotes everything it passed over just the same.
//
// The SM classifies its own cycles. Tick classifies the cycle it runs in
// and, first, every cycle since the previous Tick — in one addition, with
// StallKind, because nothing that StallKind reads can change between ticks
// except a CTA launch, before which the caller settles (Settle). Settle
// brings the counters up to a cycle for a reader, and ResetStats starts a
// new measurement window at one. A run loop therefore ticks an SM only when
// it can act and still gets every cycle classified exactly once.
package sm

import (
	"fmt"
	"math/bits"

	"gpuscale/internal/obs"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// TickKind classifies what an SM did in one cycle.
type TickKind uint8

const (
	// Issued means one instruction was issued.
	Issued TickKind = iota
	// StallMem means no warp was ready and every blocked warp was waiting
	// for data from memory — the f_mem numerator.
	StallMem
	// StallPipe means no warp was ready but at least one blocked warp was
	// waiting on a compute (pipeline) dependency.
	StallPipe
	// Idle means the SM had no live warps at all (waiting for a CTA, or
	// the grid has drained).
	Idle
)

// String implements fmt.Stringer.
func (k TickKind) String() string {
	switch k {
	case Issued:
		return "issued"
	case StallMem:
		return "stall-mem"
	case StallPipe:
		return "stall-pipe"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("TickKind(%d)", uint8(k))
	}
}

// Policy selects the warp scheduling policy.
type Policy uint8

const (
	// GTO is Greedy-Then-Oldest (the paper's Table III policy): stay on
	// the current warp while it is ready, otherwise pick the oldest
	// ready warp.
	GTO Policy = iota
	// LRR is loose round-robin: the ready warp that issued least
	// recently goes first.
	LRR
	// TwoLevel is the fetch-group two-level scheduler: warp slots are
	// partitioned into fixed groups of uarch.TwoLevelGroupSize, scheduling
	// round-robins within the active group (re-keying on issue like LRR),
	// and the active group only advances — cyclically, to the next group
	// with a ready warp — when the current one has none ready.
	TwoLevel
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case GTO:
		return "gto"
	case LRR:
		return "lrr"
	case TwoLevel:
		return "two-level"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// MemPort is the SM's window onto the memory hierarchy. Access schedules
// the memory instruction in, issued at cycle now, and returns the cycle at
// which the data is available to the warp. Stores are fire-and-forget: they
// consume bandwidth but the returned cycle is ignored by the SM.
type MemPort interface {
	Access(now int64, in trace.Instr) int64
}

// ProgramRecycler receives warp programs whose warps have retired, so the
// driver can return arena-allocated programs to their pool. Release is called
// exactly once per program, from inside Tick, after the program's final Next
// has returned false.
type ProgramRecycler interface {
	Release(trace.Program)
}

type warp struct {
	prog      trace.Program
	readyAt   int64
	launch    int64 // GTO age: smaller = older
	lastIssue int64 // LRR recency: smaller = longer since last issue
	ctaSlot   int
	waitMem   bool
	live      bool
}

// Stats aggregates per-SM counters. The four cycle counters partition the
// cycles since construction or the last ResetStats, up to the latest Tick
// or Settle.
type Stats struct {
	Instructions    uint64
	MemInstructions uint64
	IssuedCycles    uint64
	MemStallCycles  uint64
	PipeStallCycles uint64
	IdleCycles      uint64
	CTAsCompleted   uint64
}

// TotalCycles returns the sum of all classified cycles.
func (s Stats) TotalCycles() uint64 {
	return s.IssuedCycles + s.MemStallCycles + s.PipeStallCycles + s.IdleCycles
}

// FMem returns the memory-stall fraction f_mem (Eq. 3's denominator input):
// cycles in which the SM could not fetch because all blocked warps waited on
// memory, divided by all cycles.
func (s Stats) FMem() float64 {
	t := s.TotalCycles()
	if t == 0 {
		return 0
	}
	return float64(s.MemStallCycles) / float64(t)
}

// SM is one streaming multiprocessor. The zero value is not usable; use New.
type SM struct {
	computeLat int64
	maxWarps   int
	maxCTAs    int
	policy     Policy
	issueWidth int // instructions issued per cycle; 1 in the baseline

	warps     []warp
	freeWarps []int
	ready     readyQueue // assignment-ordered bitmap; pops oldest (GTO) / least recent (LRR)
	pending   wakeWheel  // blocked warps by wake-up cycle (readyAt)
	current   int        // greedy warp index, -1 if none
	recycler  ProgramRecycler

	// Two-level scheduler state: one ready queue per fetch group plus a
	// live-entry count (the per-group queues make a single len() scan
	// impossible) and the active-group cursor. Nil/zero under GTO and LRR,
	// which use the single ready queue above.
	groups      []readyQueue
	activeGroup int
	readyCount  int

	ctaLive      []int
	freeCTASlots []int
	liveWarps    int
	blockedMem   int
	launchSeq    int64

	// currentReady marks the GTO greedy warp as ready without it sitting in
	// the ready heap. Greedy re-issue is the dominant pattern — a warp
	// issues, blocks on its own load, is promoted, and issues again — and
	// keeping it out of the heap turns that promote/pick cycle from a heap
	// push plus an arbitrary-position removal into two flag writes. The
	// scheduling decision is unchanged: GTO picks the current warp whenever
	// it is ready, so it never competes in the heap's oldest-first ordering.
	currentReady bool

	// Cycle accounting: every cycle before accAt is classified in stats
	// (or fell before the last ResetStats); lastKind is the classification
	// of the latest Tick, which ResetStats re-adds when it lands on the
	// cycle that Tick ran in.
	accAt    int64
	lastKind TickKind
	stats    Stats
}

// New constructs an SM with the default microarchitecture variant (GTO
// scheduling, single issue) and the given residency limits and
// dependent-issue compute latency. It is a thin wrapper over NewVariant.
func New(maxWarps, maxCTAs, computeLatency int) (*SM, error) {
	return NewVariant(maxWarps, maxCTAs, computeLatency, uarch.Variant{})
}

// NewWithPolicy is New with an explicit warp scheduling policy; the other
// variant dimensions stay at their defaults.
func NewWithPolicy(maxWarps, maxCTAs, computeLatency int, policy Policy) (*SM, error) {
	var sched uarch.Scheduler
	switch policy {
	case GTO:
		sched = uarch.SchedGTO
	case LRR:
		sched = uarch.SchedLRR
	case TwoLevel:
		sched = uarch.SchedTwoLevel
	default:
		return nil, fmt.Errorf("sm: unknown policy %v", policy)
	}
	return NewVariant(maxWarps, maxCTAs, computeLatency, uarch.Variant{Scheduler: sched})
}

// NewVariant is the variant-aware SM constructor every other form wraps: it
// validates the residency limits, the latency and the variant in one place
// and builds the scheduler structures the variant needs.
func NewVariant(maxWarps, maxCTAs, computeLatency int, v uarch.Variant) (*SM, error) {
	if maxWarps <= 0 {
		return nil, fmt.Errorf("sm: maxWarps must be positive, got %d", maxWarps)
	}
	if maxCTAs <= 0 {
		return nil, fmt.Errorf("sm: maxCTAs must be positive, got %d", maxCTAs)
	}
	if computeLatency <= 0 {
		return nil, fmt.Errorf("sm: computeLatency must be positive, got %d", computeLatency)
	}
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("sm: %w", err)
	}
	v = v.Normalize()
	var policy Policy
	switch v.Scheduler {
	case uarch.SchedGTO:
		policy = GTO
	case uarch.SchedLRR:
		policy = LRR
	case uarch.SchedTwoLevel:
		policy = TwoLevel
	default:
		panic("sm: unreachable scheduler " + string(v.Scheduler)) // Validate covers the enum
	}
	s := &SM{
		computeLat:   int64(computeLatency),
		maxWarps:     maxWarps,
		maxCTAs:      maxCTAs,
		policy:       policy,
		issueWidth:   v.IssueWidth,
		warps:        make([]warp, 0, maxWarps),
		freeWarps:    make([]int, 0, maxWarps),
		ctaLive:      make([]int, maxCTAs),
		freeCTASlots: make([]int, 0, maxCTAs),
		current:      -1,
	}
	// Pre-size everything the warp lifecycle touches: launch, issue,
	// block, promote and retire must not allocate in steady state
	// (TestSteadyStateNoAllocs in internal/gpu pins this).
	s.ready.grow(maxWarps)
	s.pending.grow(maxWarps)
	if policy == TwoLevel {
		nGroups := (maxWarps + uarch.TwoLevelGroupSize - 1) / uarch.TwoLevelGroupSize
		s.groups = make([]readyQueue, nGroups)
		for i := range s.groups {
			// Ranks are indexed by global warp slot, so every group queue
			// sizes its rank table to maxWarps even though it only ever
			// holds its own group's warps.
			s.groups[i].grow(maxWarps)
		}
	}
	for i := maxCTAs - 1; i >= 0; i-- {
		s.freeCTASlots = append(s.freeCTASlots, i)
	}
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(maxWarps, maxCTAs, computeLatency int) *SM {
	s, err := New(maxWarps, maxCTAs, computeLatency)
	if err != nil {
		panic(err)
	}
	return s
}

// MustNewVariant is NewVariant but panics on error.
func MustNewVariant(maxWarps, maxCTAs, computeLatency int, v uarch.Variant) *SM {
	s, err := NewVariant(maxWarps, maxCTAs, computeLatency, v)
	if err != nil {
		panic(err)
	}
	return s
}

// groupOf returns the fetch group of a warp slot under the two-level
// scheduler.
func groupOf(idx int) int { return idx / uarch.TwoLevelGroupSize }

// readyLen returns how many warps are ready to issue. GTO and LRR keep them
// in the single assignment-ordered queue; the two-level scheduler spreads
// them across per-group queues and counts them separately.
func (s *SM) readyLen() int {
	if s.policy == TwoLevel {
		return s.readyCount
	}
	return s.ready.len()
}

// readyAssign re-keys a warp slot to the freshest sequence position in its
// scheduling queue.
func (s *SM) readyAssign(idx int) {
	if s.policy == TwoLevel {
		s.groups[groupOf(idx)].assign(idx)
		return
	}
	s.ready.assign(idx)
}

// readyPush marks an assigned warp slot ready.
func (s *SM) readyPush(idx int) {
	if s.policy == TwoLevel {
		s.groups[groupOf(idx)].push(idx)
		s.readyCount++
		return
	}
	s.ready.push(idx)
}

// readyPop removes and returns the next warp to issue; the caller must have
// checked readyLen() > 0. GTO pops the oldest ready warp, LRR the least
// recently issued; the two-level scheduler pops within the active fetch
// group and only advances the group — cyclically, to the next with a ready
// warp — when the active one is empty.
func (s *SM) readyPop() int {
	if s.policy != TwoLevel {
		return s.ready.pop()
	}
	g := s.activeGroup
	for s.groups[g].len() == 0 {
		g++
		if g == len(s.groups) {
			g = 0
		}
	}
	s.activeGroup = g
	s.readyCount--
	return s.groups[g].pop()
}

// readyUnrank forgets a retiring warp slot's scheduling key.
func (s *SM) readyUnrank(idx int) {
	if s.policy == TwoLevel {
		s.groups[groupOf(idx)].unrank(idx)
		return
	}
	s.ready.unrank(idx)
}

// SetRecycler installs a recycler notified as each warp program retires. A
// nil recycler (the default) disables recycling; retired programs are simply
// dropped for the garbage collector.
func (s *SM) SetRecycler(r ProgramRecycler) { s.recycler = r }

// CanAccept reports whether a CTA of the given warp count can be launched.
func (s *SM) CanAccept(warps int) bool {
	return len(s.freeCTASlots) > 0 && s.liveWarps+warps <= s.maxWarps
}

// LaunchCTA makes the given warp programs resident. The caller must check
// CanAccept first; LaunchCTA panics otherwise (a scheduler bug, not a user
// error). A launch changes StallKind, so a caller that wants exact cycle
// counts calls Settle with the launch cycle first: the cycles before the
// launch belong to the residency before it.
func (s *SM) LaunchCTA(programs []trace.Program) {
	if !s.CanAccept(len(programs)) {
		panic("sm: LaunchCTA without CanAccept")
	}
	slot := s.freeCTASlots[len(s.freeCTASlots)-1]
	s.freeCTASlots = s.freeCTASlots[:len(s.freeCTASlots)-1]
	s.ctaLive[slot] = len(programs)
	for _, p := range programs {
		idx := s.allocWarp()
		s.warps[idx] = warp{prog: p, readyAt: 0, launch: s.launchSeq, lastIssue: s.launchSeq, ctaSlot: slot, live: true}
		s.launchSeq++
		s.readyAssign(idx) // key = the launchSeq value just recorded
		s.readyPush(idx)
	}
	s.liveWarps += len(programs)
}

func (s *SM) allocWarp() int {
	if n := len(s.freeWarps); n > 0 {
		idx := s.freeWarps[n-1]
		s.freeWarps = s.freeWarps[:n-1]
		return idx
	}
	s.warps = append(s.warps, warp{})
	return len(s.warps) - 1
}

// LiveWarps returns the number of resident, unfinished warps.
func (s *SM) LiveWarps() int { return s.liveWarps }

// FreeCTASlots returns how many CTA slots are free.
func (s *SM) FreeCTASlots() int { return len(s.freeCTASlots) }

// ResidentCTAs returns how many CTAs currently occupy slots.
func (s *SM) ResidentCTAs() int { return s.maxCTAs - len(s.freeCTASlots) }

// Tick advances the SM by one cycle at time now, issuing up to the
// configured issue width (one instruction in the baseline) through mem, and
// returns the cycle's classification. It first classifies the cycles since
// the previous Tick (Settle), then the cycle now itself. now must not be
// earlier than the previous Tick's.
func (s *SM) Tick(now int64, mem MemPort) TickKind {
	s.Settle(now)
	// Promote warps whose dependencies resolved, in warp-index order. Any
	// order gives the same schedule: the ready queues pop by rank, not by
	// arrival, and the other effects are a counter and a flag.
	due := s.pending.due(now)
	for i, b := range due {
		due[i] = 0
		for ; b != 0; b &= b - 1 {
			idx := i<<6 + bits.TrailingZeros64(b)
			w := &s.warps[idx]
			if w.waitMem {
				s.blockedMem--
				w.waitMem = false
			}
			if s.policy == GTO && idx == s.current {
				s.currentReady = true // greedy warp bypasses the ready queue
				continue
			}
			s.readyPush(idx)
		}
	}

	kind := Issued
issue:
	for issued := 0; issued < s.issueWidth; {
		var idx int
		switch {
		case s.currentReady:
			// Greedy: stay on the current warp while it is ready.
			idx = s.current
			s.currentReady = false
		case s.readyLen() > 0:
			// Then-oldest: the ready warp with the smallest scheduling key.
			idx = s.readyPop()
		default:
			// Width not filled; a cycle that issued nothing is the stall
			// StallKind names, which is also what every following cycle
			// until the next Tick will be.
			if issued == 0 {
				kind = s.StallKind()
			}
			break issue
		}

		w := &s.warps[idx]
		in, ok := w.prog.Next()
		if !ok {
			s.retire(idx)
			continue // retirement is free; pick another warp this cycle
		}
		s.current = idx
		w.lastIssue = s.launchSeq
		s.launchSeq++
		if s.policy == LRR || s.policy == TwoLevel {
			// These policies key the ready queue by lastIssue, which was
			// just redrawn from launchSeq — move the warp to the back of
			// the (group) sequence.
			s.readyAssign(idx)
		}
		s.stats.Instructions++
		switch in.Kind {
		case trace.Compute:
			w.readyAt = now + s.computeLat
		case trace.Load:
			s.stats.MemInstructions++
			w.readyAt = mem.Access(now, in)
			if w.readyAt <= now {
				w.readyAt = now + 1
			}
			w.waitMem = true
			s.blockedMem++
		case trace.Store:
			s.stats.MemInstructions++
			mem.Access(now, in)
			w.readyAt = now + 1
		}
		s.pending.park(idx, w.readyAt)
		// A just-issued warp's earliest wake-up is now+1, so it cannot be
		// picked again within this cycle; the remaining issue slots go to
		// other ready warps.
		issued++
	}
	s.accrue(kind, 1)
	s.lastKind, s.accAt = kind, now+1
	return kind
}

func (s *SM) retire(idx int) {
	w := &s.warps[idx]
	if s.recycler != nil {
		s.recycler.Release(w.prog)
	}
	w.prog = nil
	w.live = false
	s.readyUnrank(idx)
	s.liveWarps--
	s.freeWarps = append(s.freeWarps, idx)
	if s.current == idx {
		s.current = -1
		s.currentReady = false
	}
	slot := w.ctaSlot
	s.ctaLive[slot]--
	if s.ctaLive[slot] == 0 {
		s.freeCTASlots = append(s.freeCTASlots, slot)
		s.stats.CTAsCompleted++
	}
}

// readyKey returns the priority key for the ready heap: launch age under
// GTO (oldest first), last-issue recency under LRR and the two-level
// scheduler (least recently issued first, per fetch group for the latter).
func (s *SM) readyKey(idx int) int64 {
	if s.policy == LRR || s.policy == TwoLevel {
		return s.warps[idx].lastIssue
	}
	return s.warps[idx].launch
}

// accrue adds weight cycles of the given classification to the statistics.
func (s *SM) accrue(kind TickKind, weight uint64) {
	switch kind {
	case Issued:
		s.stats.IssuedCycles += weight
	case StallMem:
		s.stats.MemStallCycles += weight
	case StallPipe:
		s.stats.PipeStallCycles += weight
	case Idle:
		s.stats.IdleCycles += weight
	}
}

// IssuingWarp returns the warp slot index of the instruction the current
// Tick is issuing — valid inside a MemPort.Access callback, because Tick
// records the greedy warp before touching memory. The sharded MCM run loop
// uses it to tag a deferred memory access with the warp whose wake-up must
// be repaired once the access's true completion cycle is known.
func (s *SM) IssuingWarp() int { return s.current }

// FixPendingWake rewrites a blocked warp's wake-up cycle in place — warp
// state and its place in the pending wheel both. The sharded run loop parks
// a deferred load's warp at a provisional far-future cycle (the wheel's
// heap) during the parallel tick phase and repairs it with the true
// completion cycle — usually inside the wheel's horizon — before the next
// cycle's ticks; the warp must still be pending (it cannot have been
// promoted: wake-ups are repaired before the cycle they could resolve in).
// readyAt must be later than the SM's latest Tick, mirroring Tick's
// next-cycle clamp on MemPort completions.
func (s *SM) FixPendingWake(idx int, readyAt int64) {
	w := &s.warps[idx]
	s.pending.fix(idx, w.readyAt, readyAt)
	w.readyAt = readyAt
}

// HasReady reports whether a warp could issue (or retire) right now without
// waiting for any pending dependency to resolve.
func (s *SM) HasReady() bool { return s.currentReady || s.readyLen() > 0 }

// StallKind returns the classification Tick would report for a cycle in
// which this SM cannot act — no ready warp and no promotion due: Idle
// without live warps, StallMem while any blocked warp waits on memory,
// StallPipe otherwise. Its inputs, liveWarps and blockedMem, change only
// inside Tick and LaunchCTA, so it holds for every cycle from one Tick to
// the next; that is what lets Tick and Settle classify a whole stretch of
// un-ticked cycles with one addition.
func (s *SM) StallKind() TickKind {
	if s.liveWarps == 0 {
		return Idle
	}
	// A no-issue cycle counts toward f_mem (Eq. 3) when any blocked warp is
	// waiting on memory: if memory returned instantly that warp would be
	// ready and the cycle would not exist, so memory is the binding cause.
	// Only cycles where every blocked warp sits in a short arithmetic
	// dependency are pipeline stalls.
	if s.blockedMem > 0 {
		return StallMem
	}
	return StallPipe
}

// NextEvent returns the earliest cycle at which a blocked warp becomes
// ready, and false when nothing is pending (the SM is idle or has a warp
// ready right now).
func (s *SM) NextEvent() (int64, bool) {
	if s.currentReady || s.readyLen() > 0 {
		return 0, false // a warp is ready immediately; no skipping possible
	}
	return s.pending.next()
}

// Settle classifies the cycles from the latest Tick (or Settle) up to, not
// including, now with StallKind, so the counters read as if the SM had been
// ticked every cycle. Tick settles by itself; a run loop calls Settle before
// a CTA launch and before it reads the counters. No-op when the SM is
// already settled past now.
func (s *SM) Settle(now int64) {
	if d := now - s.accAt; d > 0 {
		s.accrue(s.StallKind(), uint64(d))
		s.accAt = now
	}
}

// Stats returns a copy of the SM's counters.
func (s *SM) Stats() Stats { return s.stats }

// PublishObs stores the SM's warp-scheduler accounting — issue slots and the
// per-reason stall-cycle breakdown — into the given metrics scope. Totals are
// authoritative (Store, not Add), so publishing is idempotent and repeated
// calls track the counters exactly. No-op on a nil scope.
func (s *SM) PublishObs(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.Counter("instructions").Store(s.stats.Instructions)
	sc.Counter("mem_instructions").Store(s.stats.MemInstructions)
	sc.Counter("issued_cycles").Store(s.stats.IssuedCycles)
	sc.Counter("stall_mem_cycles").Store(s.stats.MemStallCycles)
	sc.Counter("stall_pipe_cycles").Store(s.stats.PipeStallCycles)
	sc.Counter("idle_cycles").Store(s.stats.IdleCycles)
	sc.Counter("ctas_completed").Store(s.stats.CTAsCompleted)
	sc.Gauge("live_warps").Set(float64(s.liveWarps))
}

// ResetStats zeroes the SM's counters without touching warp or CTA state,
// so measurement can start after a warm-up period, and starts the new
// window at cycle now: a Tick at now stays counted (its classification is
// re-added — the reset follows the cycle's ticks, and the cycle belongs to
// the new window), and the un-ticked cycles before now are dropped.
func (s *SM) ResetStats(now int64) {
	s.stats = Stats{}
	if s.accAt > now {
		s.accrue(s.lastKind, 1)
	} else {
		s.accAt = now
	}
}
