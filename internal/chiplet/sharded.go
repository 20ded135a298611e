// Sharded execution mode: the package's chiplets are partitioned into
// contiguous groups ("shards"), each driven by its own goroutine over a
// private timing kernel, synchronised at a cycle barrier by an
// internal/parallel pool. Results are bit-identical to the sequential
// event loop — the contract, its invariants and the full determinism
// argument live in docs/PARALLELISM.md. In brief, per visited cycle:
//
//  1. Serial: CTA refills, termination, cancellation, cycle limit — the
//     same control flow runEvent runs between Steps.
//  2. Phase A (parallel, per shard): apply the previous cycle's deferred
//     memory fix-ups, then TickCycle + FinishCycle on the shard's kernel.
//     Every SM access that would touch cross-SM state (the page table,
//     package counters, the owner chiplet's link/NoC/LLC/DRAM) is recorded
//     in the shard's deferred list instead of being resolved, and the
//     issuing warp is parked at a provisional far-future wake-up.
//  3. Serial: merge issue/live/dirty flags, charge SimEvents, and stamp
//     the deferred accesses — first-touch page allocation plus package
//     counters — walking shards in ascending id, which (shards own
//     contiguous chip-major SM ranges) is exactly the ascending global SM
//     order the sequential drain produces.
//  4. Phase B (parallel, per owner shard): replay each access against its
//     owner chiplet's link/crossbar/LLC/DRAM in that same global order,
//     computing the true completion cycle. Only the owner shard touches an
//     owner chiplet's resources, so the replay is race-free and each
//     resource sees its access sequence in sequential order.
//  5. Serial: advance every kernel to the same next cycle — now+1 if
//     anything issued (a deferred access implies its SM issued, so no
//     provisional wake-up is ever consulted), else the minimum NextPending
//     across shards, exactly Step's event-skip decision.
package chiplet

import (
	"context"
	"fmt"

	"gpuscale/internal/cache"
	"gpuscale/internal/parallel"
	"gpuscale/internal/sm"
	"gpuscale/internal/timing"
	"gpuscale/internal/trace"
)

// provisionalWake is the parked wake-up cycle a deferred load reports to
// its SM. It is repaired to the true completion before the next cycle's
// ticks and is never consulted by the advance decision (the deferring
// cycle always issued), so its only requirement is to sort after any real
// wake-up.
const provisionalWake = int64(1) << 62

// deferredAccess is one post-L1 memory access recorded during the parallel
// tick phase, resolved at the cycle barrier. Fields up to full are written
// by the issuing shard in phase A; owner by the serial stamp; t by the
// owner shard in phase B (each record has exactly one owner, so phase-B
// writes to distinct records never race); the fix-up fields are read back
// by the issuing shard in the next cycle's phase A.
type deferredAccess struct {
	m       *sm.SM
	f       *cache.MSHRFile
	lu      int // issuing SM, local to the issuing shard's kernel
	warp    int // issuing warp slot; -1 for stores (no wake-up to repair)
	chip    int
	line    uint64
	key     uint64 // MSHR merge key (== line unless the L1 is sectored)
	page    uint64
	arrival int64 // issue cycle, pushed past a full MSHR's next completion
	issueAt int64
	t       int64 // true completion cycle, stamped in phase B
	owner   int   // owning chiplet, stamped serially at the barrier
	load    bool
	bypass  bool
	full    bool
}

// shard is one runner: a contiguous chiplet group, its private timing
// kernel (unit ids local, 0 = firstG), arena, and the per-cycle buffers the
// barrier protocol exchanges. It implements timing.Driver over its own SMs
// and sm.ProgramRecycler for their retiring programs.
type shard struct {
	sim       *Simulator
	id        int
	firstChip int
	endChip   int
	firstG    int
	nUnits    int
	tk        *timing.Kernel
	arena     *trace.Arena

	deferred  []deferredAccess  // accesses this shard's SMs issued this cycle
	incoming  []*deferredAccess // accesses owned by this shard's chiplets, global order
	issued    bool
	liveDelta int
	ctaDirty  bool
	llcAcc    uint64
	llcMiss   uint64
}

// buildShards partitions the package into n contiguous chiplet groups.
// Chip-major global SM ids make each shard's unit range contiguous, which
// is what lets the barrier's shard-order reduction reproduce the
// sequential kernel's ascending-global-id drain order.
func (s *Simulator) buildShards(n int) {
	nc := s.cfg.NumChiplets
	nsm := s.cfg.Chiplet.NumSMs
	base, rem := nc/n, nc%n
	s.shards = make([]*shard, n)
	s.shardOfChip = make([]*shard, nc)
	firstChip := 0
	for i := 0; i < n; i++ {
		cnt := base
		if i < rem {
			cnt++
		}
		sh := &shard{
			sim:       s,
			id:        i,
			firstChip: firstChip,
			endChip:   firstChip + cnt,
			firstG:    firstChip * nsm,
			nUnits:    cnt * nsm,
		}
		sh.tk = timing.MustNew(timing.Config{Units: sh.nUnits}, sh)
		sh.arena = trace.NewArena(sh.nUnits * s.cfg.Chiplet.WarpsPerSM)
		// An SM issues at most one instruction per cycle, so deferred never
		// outgrows nUnits and incoming never outgrows the package — neither
		// append reallocates after construction.
		sh.deferred = make([]deferredAccess, 0, sh.nUnits)
		sh.incoming = make([]*deferredAccess, 0, len(s.all))
		for c := firstChip; c < sh.endChip; c++ {
			s.shardOfChip[c] = sh
		}
		for lu := 0; lu < sh.nUnits; lu++ {
			r := s.all[sh.firstG+lu]
			r.p.sh = sh
			r.m.SetRecycler(sh)
		}
		s.shards[i] = sh
		firstChip = sh.endChip
	}
}

// Release implements sm.ProgramRecycler: a shard's retiring programs return
// to the shard's own arena (retirement happens inside the parallel tick
// phase, so the package arena would race).
func (sh *shard) Release(p trace.Program) {
	if sh.sim.aw != nil {
		sh.arena.Release(p)
	}
}

// deferAccess records a post-L1 access for barrier resolution and returns
// the provisional completion. Called from port.Access, inside the issuing
// SM's Tick, so IssuingWarp identifies the warp whose wake-up the next
// cycle's fix-up pass must repair. Stores get no fix-up (the SM ignores
// their completion) but are still recorded: their bandwidth, LLC and page
// effects must replay in order.
func (sh *shard) deferAccess(p *port, line, key, page uint64, arrival, now int64, load, bypass, full bool) int64 {
	m := sh.sim.all[p.g].m
	warp := -1
	if load {
		warp = m.IssuingWarp()
	}
	sh.deferred = append(sh.deferred, deferredAccess{
		m:       m,
		f:       sh.sim.chips[p.chip].mshrs[p.smID],
		lu:      p.g - sh.firstG,
		warp:    warp,
		chip:    p.chip,
		line:    line,
		key:     key,
		page:    page,
		arrival: arrival,
		issueAt: now,
		load:    load,
		bypass:  bypass,
		full:    full,
	})
	return provisionalWake
}

// applyFixups repairs the previous cycle's deferred wake-ups from the
// completion cycles phase B stamped, then clears the records. Runs at the
// head of phase A.
func (sh *shard) applyFixups() {
	for i := range sh.deferred {
		rec := &sh.deferred[i]
		if !rec.load {
			continue
		}
		// The MSHR allocation the sequential port did at issue time lands
		// here instead; nothing can have observed the file in between (the
		// owner SM's next Lookup/Full/Expire all happen inside its Tick,
		// after this pass).
		if !rec.bypass && !rec.full {
			rec.f.Allocate(rec.key, rec.t)
		}
		rdy := rec.t
		if rdy <= rec.issueAt {
			rdy = rec.issueAt + 1 // sm.Tick's next-cycle clamp on completions
		}
		rec.m.FixPendingWake(rec.warp, rdy)
		// The SM's reported wake was min over its warps with this load
		// parked at provisionalWake; the true wake is that min folded with
		// rdy. A CTA launch may already have scheduled the unit earlier —
		// never push a wake-up back.
		if w := sh.tk.WakeAt(rec.lu); w == timing.NoWake || rdy < w {
			sh.tk.Reschedule(rec.lu, rdy)
		}
	}
	sh.deferred = sh.deferred[:0]
}

// phaseA is the parallel tick phase: repair the previous cycle's deferred
// wake-ups, then drain this shard's due units.
func (sh *shard) phaseA() {
	sh.applyFixups()
	sh.issued = sh.tk.TickCycle()
	sh.tk.FinishCycle()
}

// phaseB replays this shard's incoming accesses — every deferred access
// whose first-touch owner chiplet lives here, in ascending global SM id —
// against the owner's link, crossbar, LLC slice and DRAM, stamping the
// true completion cycle. This is port.Access's post-page-lookup tail,
// executed by the owner shard instead of the issuing one.
func (sh *shard) phaseB() {
	s := sh.sim
	ch := s.cfg.Chiplet
	for _, rec := range sh.incoming {
		t := rec.arrival
		oc := s.chips[rec.owner]
		remote := rec.owner != rec.chip
		if remote {
			t = oc.link.Schedule(t, s.xferBytes) + int64(s.cfg.InterChipletLatency)
		}
		nSlices := uint64(len(oc.llc))
		slice := int(rec.line % nSlices)
		t = oc.xbar.Transfer(t, slice, s.xferBytes)
		t += int64(ch.LLCHitLatency)
		sh.llcAcc++
		sliceLocal := (rec.line / nSlices) << s.lineBits
		if !oc.llc[slice].Access(sliceLocal) {
			sh.llcMiss++
			t = oc.mem.Access(t, rec.line, s.xferBytes)
			t += int64((rec.line * 0x9e3779b9 >> 13) % 13)
		}
		t += int64(ch.NoCBaseLatency)
		if remote {
			t += int64(s.cfg.InterChipletLatency)
		}
		rec.t = t
	}
}

// stampOwners is the serial barrier reduction between the phases: walking
// shards in ascending id — i.e. deferred accesses in ascending global SM
// id, the sequential within-cycle order — it performs first-touch page
// allocation, counts the package's access/remote totals, and routes each
// record to its owner chiplet's shard for phase B.
func (s *Simulator) stampOwners() {
	for _, sh := range s.shards {
		for i := range sh.deferred {
			rec := &sh.deferred[i]
			owner, seen := s.pages[rec.page]
			if !seen {
				owner = rec.chip
				s.pages[rec.page] = owner
			}
			rec.owner = owner
			s.accesses++
			if owner != rec.chip {
				s.remote++
			}
			os := s.shardOfChip[owner]
			os.incoming = append(os.incoming, rec)
		}
	}
}

// timing.Driver over the shard's own SMs (unit ids local to the shard).

// TickUnit mirrors Simulator.TickUnit with shard-local live/dirty
// accumulation; the coordinator merges the deltas at the barrier.
func (sh *shard) TickUnit(now int64, lu int) timing.Outcome {
	r := sh.sim.all[sh.firstG+lu]
	liveBefore := r.m.LiveWarps()
	r.f.Expire(now)
	k := r.m.Tick(now, r.p)
	out := timing.Outcome{Wake: timing.NoWake, Kind: uint8(k), Issued: k == sm.Issued}
	if d := liveBefore - r.m.LiveWarps(); d > 0 {
		sh.liveDelta += d
		sh.ctaDirty = true
	}
	if r.m.HasReady() {
		out.Wake = now + 1
	} else if ev, ok := r.m.NextEvent(); ok {
		out.Wake = ev
	}
	return out
}

// AccrueStall mirrors Simulator.AccrueStall.
func (sh *shard) AccrueStall(lu int, cycles uint64) {
	m := sh.sim.all[sh.firstG+lu].m
	m.Accrue(m.StallKind(), cycles)
}

// AccrueTick mirrors Simulator.AccrueTick.
func (sh *shard) AccrueTick(lu int, kind uint8) {
	sh.sim.all[sh.firstG+lu].m.Accrue(sm.TickKind(kind), 1)
}

// CycleEnd is a no-op: SimEvents is charged once per visited cycle by the
// coordinator's serial section, matching the sequential CycleEnd exactly.
func (sh *shard) CycleEnd(now int64) {}

// runSharded is the sharded run loop: runEvent's control flow with Step
// replaced by the barrier protocol described at the top of this file.
func (s *Simulator) runSharded(ctx context.Context) (Stats, error) {
	pool := parallel.NewPoolLabeled(ctx, len(s.shards), "mcm")
	defer pool.Close()
	phaseA := func(i int) { s.shards[i].phaseA() }
	phaseB := func(i int) { s.shards[i].phaseB() }
	iters := 0
	for {
		iters++
		if iters >= ctxCheckEvery {
			iters = 0
			select {
			case <-ctx.Done():
				return Stats{}, fmt.Errorf("chiplet: %q on %s cancelled at cycle %d: %w",
					s.workload.Name(), s.cfg.Name, s.now, ctx.Err())
			default:
			}
		}
		if s.ctaDirty {
			s.fillCTAs()
		}
		if s.liveTotal == 0 {
			if s.nextCTA >= s.numCTAs {
				break
			}
			s.ctaDirty = true // mirror the dense loop's unconditional refill
		}
		if s.maxCyc > 0 && s.now > s.maxCyc {
			return Stats{}, fmt.Errorf("chiplet: %q on %s exceeded MaxCycles=%d",
				s.workload.Name(), s.cfg.Name, s.maxCyc)
		}
		pool.Run(phaseA)
		issued := false
		nDeferred := 0
		for _, sh := range s.shards {
			issued = issued || sh.issued
			s.liveTotal -= sh.liveDelta
			sh.liveDelta = 0
			if sh.ctaDirty {
				s.ctaDirty = true
				sh.ctaDirty = false
			}
			nDeferred += len(sh.deferred)
		}
		s.events += uint64(len(s.all))
		if nDeferred > 0 {
			s.stampOwners()
			pool.Run(phaseB)
			for _, sh := range s.shards {
				s.llcAcc += sh.llcAcc
				s.llcMiss += sh.llcMiss
				sh.llcAcc, sh.llcMiss = 0, 0
				sh.incoming = sh.incoming[:0]
			}
		}
		next := s.now + 1
		if !issued {
			// Event-skip: the earliest pending wake-up across all shards,
			// exactly Step's decision over one global kernel. No
			// provisional wake can be consulted here — a deferring cycle
			// always issued.
			next = timing.NoWake
			for _, sh := range s.shards {
				if p := sh.tk.NextPending(); p != timing.NoWake && (next == timing.NoWake || p < next) {
					next = p
				}
			}
			if next < s.now+1 {
				next = s.now + 1
			}
		}
		for _, sh := range s.shards {
			sh.tk.AdvanceTo(next)
		}
		s.now = next
		if s.stream != nil && s.now >= s.nextSample {
			s.sampleObs()
			for s.nextSample <= s.now {
				s.nextSample += s.sampleEvery
			}
		}
	}
	return s.stats(), nil
}
