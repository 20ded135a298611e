// Sharded execution: the SMs are partitioned into contiguous groups
// ("shards") — SM groups on a one-domain GPU, whole domains (chiplets) on a
// multi-chiplet package — each driven by its own goroutine over a private
// timing kernel, synchronised once per parallel phase by an
// internal/parallel fork-join pool (shard 0 runs on the coordinating
// goroutine itself). Results are bit-identical to the sequential event loop
// — the contract and the determinism argument live in docs/PARALLELISM.md.
// A sequential run is the same structure with one shard whose kernel Steps
// inline.
//
// Per visited cycle (stepSharded; the control flow between cycles is
// runEvent's):
//
//  1. Phase A (parallel, per shard): apply the previous cycle's fix-ups
//     (applyFixups: MSHR allocation, wake-up repair and reschedule from the
//     completion cycles stamped at the barrier), then TickCycle on the
//     shard's kernel. A cycle with too little of that work to pay for the
//     fork (forkMinWork) runs every shard's phase A on the coordinator
//     instead, in ascending shard id. An SM access that misses (or
//     bypasses) its private L1 is recorded in the shard's deferred list
//     instead of being resolved, and the issuing warp parks at a
//     provisional far-future wake-up; L1 hits and MSHR merges resolve
//     locally (they touch only the SM's own structures), counting into
//     shard-local counters.
//  2. Serial: walk the deferred accesses in ascending shard id — ascending
//     global SM id, since shards own contiguous SM ranges, which is exactly
//     the sequential drain's within-cycle order — giving each page its
//     first-touch owner. On one domain the coordinator replays each access
//     against the shared crossbar/LLC/DRAM right there, stamping its
//     completion cycle. With several domains each access goes to its owner
//     domain's shard instead, and
//  3. Phase B (parallel, per owner shard) replays every shard's incoming
//     accesses against its own domains' link/crossbar/LLC/DRAM in that same
//     global order: only the owner shard touches a domain, so each resource
//     sees its access sequence in sequential order.
//  4. Serial (endCycle): merge issue/live/dirty/counter deltas, charge
//     SimEvents, run the warm-up check. Each SM classified its own cycle in
//     its Tick, in phase A; a reset here re-adds the ticked SMs' cycle
//     (sm.SM.ResetStats), which is where the sequential ordering puts it.
//  5. Serial: advance every kernel to the same next cycle — now+1 if
//     anything issued, else the minimum NextPending across shards.
//
// Repairing a wake-up one phase late is safe because a deferring cycle
// always issued (the deferred access is an issue): step 5 takes the now+1
// branch without consulting any kernel's pending wake-ups, so the
// provisional cycle is never read, and nothing else looks at the warp, its
// MSHR file or its kernel entry before the owning shard's next phase —
// Lookup/Full/Expire run inside the SM's own Tick, and a CTA launch between
// cycles only ever schedules a unit earlier, which applyFixups respects.
package gpu

import (
	"context"

	"gpuscale/internal/cache"
	"gpuscale/internal/parallel"
	"gpuscale/internal/sm"
	"gpuscale/internal/timing"
	"gpuscale/internal/trace"
)

// provisionalWake parks a deferred load's warp until the owning shard's
// next applyFixups repairs it. Must sort after any real wake-up; never
// consulted by the advance decision (a deferring cycle always issued).
const provisionalWake = int64(1) << 62

// deferredAccess is one post-L1 access recorded during the parallel tick
// phase. The issuing shard writes it in phase A; the barrier stamps owner
// and — serially, or in phase B by the owner shard — t; the issuing shard
// reads the record back, and clears the list, at the head of its next
// parallel phase.
type deferredAccess struct {
	m       *sm.SM
	f       *cache.MSHRFile
	lu      int // issuing SM, local to the shard's kernel
	warp    int // issuing warp slot; -1 for stores (no wake-up to repair)
	home    int // issuing SM's domain
	owner   int // page owner's domain, stamped at the barrier
	line    uint64
	key     uint64 // MSHR merge key (== line unless the L1 is sectored)
	page    uint64
	arrival int64 // issue cycle, pushed past a full MSHR's next completion
	issueAt int64
	t       int64 // true completion cycle, stamped by the replay
	load    bool
	bypass  bool
	full    bool
	// An SM issuing more than one instruction a cycle sees the MSHR entries
	// its earlier accesses of the cycle allocate. merged: this load merges
	// into the entry of deferred[dep] and completes with it. Otherwise, when
	// dep >= 0 the file was full only counting those entries: the access
	// waits for the earliest of fileNC and the completions of the allocating
	// records in deferred[dep:], which only the replay knows.
	merged bool
	dep    int
	fileNC int64
}

// allocates reports whether the record takes an MSHR entry.
func (rec *deferredAccess) allocates() bool {
	return rec.load && !rec.bypass && !rec.full && !rec.merged
}

// shard is one runner: a contiguous SM range, its private timing kernel
// (unit ids local, 0 = firstSM), arena, and the per-cycle buffers the
// barrier protocol exchanges. It implements timing.Driver over its own SMs
// and sm.ProgramRecycler for their retiring programs.
type shard struct {
	sim     *Simulator
	firstSM int
	endSM   int
	tk      *timing.Kernel
	arena   *trace.Arena

	deferred  []deferredAccess  // accesses this shard's SMs issued this cycle
	incoming  []*deferredAccess // several domains: accesses its domains own, global order
	issued    bool
	dependent bool   // a deferred access waits for another's completion
	issuedD   uint64 // instructions issued this cycle, merged into issuedSoFar
	liveDelta int
	ctaDirty  bool
	ctr       counters
}

// buildShards partitions the SMs into n contiguous groups — of whole
// domains when there are several. Contiguity is what lets the barrier's
// ascending-shard-id reduction reproduce the sequential kernel's
// ascending-global-SM drain order. With n == 1 the one shard drives the
// sequential event loop and its SMs' ports resolve accesses inline.
func (s *Simulator) buildShards(n int) {
	blocks, block := len(s.sms), 1
	if len(s.doms) > 1 {
		blocks, block = len(s.doms), s.cfg.NumSMs
		if n > 1 {
			s.shardOfDom = make([]*shard, len(s.doms))
		}
	}
	// An SM issues at most issueWidth instructions per cycle, so neither
	// buffer's append reallocates after construction.
	iw := s.cfg.Uarch.Normalize().IssueWidth
	s.shards = make([]*shard, n)
	s.shardOfSM = make([]*shard, len(s.sms))
	first := 0
	for i := range s.shards {
		cnt := blocks / n
		if i < blocks%n {
			cnt++
		}
		sh := &shard{sim: s, firstSM: first * block, endSM: (first + cnt) * block}
		units := sh.endSM - sh.firstSM
		sh.tk = timing.MustNew(timing.Config{Units: units, NoSkip: s.opt.DisableEventSkip}, sh)
		sh.arena = trace.NewArena(units * s.cfg.WarpsPerSM)
		if n > 1 {
			sh.deferred = make([]deferredAccess, 0, units*iw)
		}
		if s.shardOfDom != nil {
			sh.incoming = make([]*deferredAccess, 0, len(s.sms)*iw)
			for d := first; d < first+cnt; d++ {
				s.shardOfDom[d] = sh
			}
		}
		for g := sh.firstSM; g < sh.endSM; g++ {
			s.shardOfSM[g] = sh
			s.sms[g].SetRecycler(sh)
			if n > 1 {
				s.ports[g].sh = sh
				s.ports[g].ctr = &sh.ctr
			}
		}
		s.shards[i] = sh
		first += cnt
	}
}

// Release implements sm.ProgramRecycler: a retired warp's program returns
// to its shard's arena (retirement happens inside the parallel tick phase,
// so a package-wide arena would race), but only while the running kernel is
// arena-managed — the grid barrier guarantees a kernel's last retirement
// precedes the next kernel's first launch, so kernelIdx is always the
// retiring program's kernel.
func (sh *shard) Release(p trace.Program) {
	if sh.sim.kernelAW[sh.sim.kernelIdx] != nil {
		sh.arena.Release(p)
	}
}

// deferAccess records a post-L1 access for the barrier replay and returns
// the provisional completion. Called from port.Access, inside the issuing
// SM's Tick, so IssuingWarp identifies the warp whose wake-up the next
// phase's fix-up pass must repair. Stores get no fix-up (the SM ignores
// their completion) but are still recorded: their bandwidth, LLC and page
// effects must replay in order.
func (sh *shard) deferAccess(p *port, line, key, page uint64, arrival, now int64, load, bypass, full bool) int64 {
	m := sh.sim.sms[p.smID]
	rec := deferredAccess{
		m:       m,
		f:       sh.sim.mshrs[p.smID],
		lu:      p.smID - sh.firstSM,
		warp:    -1,
		home:    p.dom,
		owner:   p.dom,
		line:    line,
		key:     key,
		page:    page,
		arrival: arrival,
		issueAt: now,
		load:    load,
		bypass:  bypass,
		full:    full,
		dep:     -1,
	}
	if load {
		rec.warp = m.IssuingWarp()
	}
	first := len(sh.deferred)
	for first > 0 && sh.deferred[first-1].m == m {
		first--
	}
	if first < len(sh.deferred) {
		sh.sameCycle(&rec, first)
	}
	sh.deferred = append(sh.deferred, rec)
	return provisionalWake
}

// sameCycle settles rec's MSHR outcome against the entries the SM's earlier
// accesses of this cycle, deferred[first:], will allocate at the next
// applyFixups — entries the sequential port would already hold. The file
// itself cannot have matched or been full: rec's own Lookup and Full found
// neither, and only those pending entries are missing from it.
func (sh *shard) sameCycle(rec *deferredAccess, first int) {
	pending := 0
	for j := first; j < len(sh.deferred); j++ {
		prev := &sh.deferred[j]
		if !prev.allocates() {
			continue
		}
		if rec.load && !rec.bypass && prev.key == rec.key {
			rec.merged, rec.dep = true, j
			return
		}
		pending++
	}
	if pending > 0 && rec.f.Outstanding(rec.issueAt)+pending >= rec.f.Capacity() {
		rec.full, rec.dep = true, first
		rec.fileNC = provisionalWake
		if nc, ok := rec.f.NextCompletion(rec.issueAt); ok {
			rec.fileNC = nc
		}
		sh.ctr.mshrStall++
		sh.dependent = true
	}
}

// waitFull is the arrival of an access that found the MSHR file full only
// counting the SM's earlier same-cycle misses prev (already stamped): the
// earliest completion among everything outstanding, as NextCompletion
// would have answered the sequential port.
func (rec *deferredAccess) waitFull(prev []deferredAccess) int64 {
	at := rec.fileNC
	for j := range prev {
		if prev[j].allocates() && prev[j].t < at {
			at = prev[j].t
		}
	}
	return at
}

// applyFixups lands the previous cycle's deferred loads on this shard's own
// SMs from the completion cycles the barrier stamped, then clears the
// records. Runs at the head of the parallel phase, and serially before an
// observer sample reads MSHR occupancy.
func (sh *shard) applyFixups() {
	for i := range sh.deferred {
		rec := &sh.deferred[i]
		if !rec.load {
			continue
		}
		if rec.merged {
			rec.t = sh.deferred[rec.dep].t
		}
		// The MSHR allocation the sequential port did at issue time lands
		// here instead; nothing can have observed the file in between (the
		// SM's next Lookup/Full/Expire all happen inside its Tick, after
		// this pass).
		if rec.allocates() {
			rec.f.Allocate(rec.key, rec.t)
		}
		// sm.Tick's next-cycle clamp on MemPort results.
		rdy := max(rec.t, rec.issueAt+1)
		rec.m.FixPendingWake(rec.warp, rdy)
		// The SM's reported wake had this load parked at the provisional
		// cycle; fold the true completion in. A CTA launch may already have
		// scheduled the unit earlier — never push a wake-up back.
		if w := sh.tk.WakeAt(rec.lu); w == timing.NoWake || rdy < w {
			sh.tk.Reschedule(rec.lu, rdy)
		}
	}
	sh.deferred = sh.deferred[:0]
}

// phaseA is the parallel tick phase: repair the previous cycle's deferred
// wake-ups, then drain this shard's due units at the current cycle.
func (sh *shard) phaseA() {
	sh.applyFixups()
	sh.issued = sh.tk.TickCycle()
}

// phaseB replays this shard's incoming accesses — every deferred access
// whose owner domain lives here, in ascending global SM id — stamping the
// true completion cycle: port.Access's post-page-lookup tail, executed by
// the owner shard instead of the issuing one.
func (sh *shard) phaseB() {
	for _, rec := range sh.incoming {
		rec.t = sh.sim.serve(&sh.ctr, rec.owner, rec.home, rec.line, rec.arrival, rec.issueAt, rec.load)
	}
	sh.incoming = sh.incoming[:0]
}

// TickUnit implements timing.Driver: one due SM's visit — the MSHR file's
// per-tick Expire (it may sweep completed entries, before any Access this
// Tick can issue), the SM tick itself, and retirement bookkeeping into
// shard-local deltas that endCycle merges. The returned Outcome carries the
// SM's next wake-up for the kernel's due-wheel; NoWake means the SM is idle
// and stays unscheduled until a CTA launch ScheduleNows it.
func (sh *shard) TickUnit(now int64, lu int) timing.Outcome {
	s := sh.sim
	g := sh.firstSM + lu
	m := s.sms[g]
	liveBefore := m.LiveWarps()
	s.mshrs[g].Expire(now)
	k := m.Tick(now, s.ports[g])
	out := timing.Outcome{Wake: timing.NoWake, Issued: k == sm.Issued}
	if out.Issued {
		sh.issuedD++
	}
	if d := liveBefore - m.LiveWarps(); d > 0 {
		sh.liveDelta += d
		// Any warp retirement can flip CanAccept (it checks liveWarps, not
		// just CTA slots), so re-scan for launches even when no whole CTA
		// completed.
		sh.ctaDirty = true
	}
	if m.HasReady() {
		out.Wake = now + 1
	} else if ev, ok := m.NextEvent(); ok {
		out.Wake = ev
	}
	return out
}

// CycleEnd implements timing.Driver. A sequential run's lone shard ends the
// machine's cycle here, inside Step; under sharding the coordinator does it
// serially at the barrier.
func (sh *shard) CycleEnd(now int64) {
	if len(sh.sim.shards) == 1 {
		sh.sim.endCycle()
	}
}

// phases is a sharded run's pool and its two phase functions, built once
// per run, and whether the last cycle's phase A forked.
type phases struct {
	pool    *parallel.Pool
	a, b    func(int)
	forking bool
}

func (s *Simulator) newPhases(ctx context.Context) *phases {
	label := "gpu"
	if s.mcm {
		label = "mcm"
	}
	return &phases{
		pool: parallel.NewPoolLabeled(ctx, len(s.shards), label),
		a:    func(i int) { s.shards[i].phaseA() },
		b:    func(i int) { s.shards[i].phaseB() },
	}
}

// forkMinWork is the phase-A work, in SM ticks summed over every shard, at
// which a cycle's phase A is worth handing to the workers; below it the
// coordinator runs every shard's phase A itself (Pool.RunInline). Two
// shards split the ticks about evenly, so forking saves at most half of
// them and costs one cross-core round trip: fork when n/2 * tick > round
// trip, i.e. n > 2 * 450 ns (BenchmarkCrossCoreRoundTrip) / 30 ns (the
// bench's sm.tick_ns) = 30 on a 2-vCPU Xeon host, rounded to 32.
//
// Once forking, a run keeps forking until the work drops below half of
// that: each switch between the two executions moves the ticking SMs'
// cache lines to the other core, and a 4-chiplet bfs run, whose work
// hovers around 32, switched every eight cycles and paid 1-3 us for each
// cycle near the threshold without this. Either execution gives
// bit-identical results: phase A touches only shard-private state.
const forkMinWork = 32

// forkAt is the threshold stepSharded applies: forkMinWork, except where
// the package's tests pin one execution by assigning 0 (always fork) or
// math.MaxInt (never fork).
var forkAt = forkMinWork

// phaseAWork counts the SM ticks the coming phase A will run: every shard's
// due units plus its deferred records from the last cycle, whose fix-ups
// may make their SMs due now (an upper bound — a store's record wakes
// nothing, and its SM may be due already).
func (s *Simulator) phaseAWork() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.tk.Due() + len(sh.deferred)
	}
	return n
}

// stepSharded visits one cycle under the barrier protocol described at the
// top of this file.
func (s *Simulator) stepSharded(ph *phases) {
	at := forkAt
	if ph.forking {
		at /= 2
	}
	if ph.forking = s.phaseAWork() >= at; ph.forking {
		ph.pool.Run(ph.a)
	} else {
		ph.pool.RunInline(ph.a)
	}
	issued, dependent, deferred := false, false, false
	for _, sh := range s.shards {
		issued = issued || sh.issued
		dependent = dependent || sh.dependent
		deferred = deferred || len(sh.deferred) > 0
		sh.dependent = false
	}
	if deferred {
		// One domain has no owner shard: the coordinator replays. An access
		// waiting for another's completion (dependent) forces the whole
		// cycle's replay into that serial global order too, of which phase
		// B's per-owner order is a projection.
		serial := s.shardOfDom == nil || dependent
		for _, sh := range s.shards {
			for i := range sh.deferred {
				rec := &sh.deferred[i]
				if rec.merged {
					continue // completes with its entry's miss (applyFixups)
				}
				if s.pages != nil {
					rec.owner = s.pageOwner(rec.page, rec.home)
				}
				if !serial {
					os := s.shardOfDom[rec.owner]
					os.incoming = append(os.incoming, rec)
					continue
				}
				if rec.dep >= 0 {
					rec.arrival = rec.waitFull(sh.deferred[rec.dep:i])
				}
				rec.t = s.serve(&s.ctr, rec.owner, rec.home, rec.line, rec.arrival, rec.issueAt, rec.load)
			}
		}
		if !serial {
			ph.pool.Run(ph.b)
		}
	}
	s.endCycle()
	next := s.now + 1
	if !issued && !s.opt.DisableEventSkip {
		// Event-skip: the earliest pending wake-up across all shards,
		// exactly Step's decision over one global kernel. No provisional
		// wake can be consulted here — a deferring cycle always issued.
		next = timing.NoWake
		for _, sh := range s.shards {
			if p := sh.tk.NextPending(); p != timing.NoWake && (next == timing.NoWake || p < next) {
				next = p
			}
		}
		next = max(next, s.now+1)
	}
	for _, sh := range s.shards {
		sh.tk.AdvanceTo(next)
	}
	s.now = next
}
