// Sharded execution mode for the monolithic GPU: the package's SMs are
// partitioned into contiguous groups ("shards"), each driven by its own
// goroutine over a private timing kernel, synchronised once per parallel
// phase by an internal/parallel fork-join pool (shard 0 runs on the
// coordinating goroutine itself). Results are bit-identical to the
// sequential event loop — the contract and the determinism argument live in
// docs/PARALLELISM.md. The protocol is the MCM simulator's (see
// internal/chiplet/sharded.go) with one structural difference: the
// monolithic NoC/LLC/DRAM path is a single shared resource domain (one
// bisection server feeding every LLC slice), so there is no per-owner
// parallel replay phase — deferred post-L1 accesses are stamped serially by
// the coordinator between phases, in ascending shard id (= ascending global
// SM id, since shards own contiguous SM ranges), which is exactly the
// sequential drain's within-cycle access order. Everything that touches an
// SM's own structures — the MSHR allocation, the warp wake-up repair, the
// kernel reschedule — is applied by the shard that owns the SM, at the head
// of its next parallel phase, so the coordinator never reads or writes
// worker-owned SM, MSHR or kernel state.
//
// Per visited cycle:
//
//  1. Serial: CTA refills, grid barrier, termination, cancellation, cycle
//     limit — the same control flow runEvent runs between Steps.
//  2. Phase A (parallel, per shard): apply the previous cycle's fix-ups
//     (applyFixups: MSHR allocation, wake-up repair and reschedule from the
//     completion cycles the coordinator stamped), then TickCycle on the
//     shard's kernel. An SM access that misses (or bypasses) its private
//     L1 is recorded in the shard's deferred list instead of being
//     resolved, and the issuing warp parks at a provisional far-future
//     wake-up; L1 hits and MSHR merges resolve locally (they touch only
//     the SM's own structures), accruing into shard-local counters.
//  3. Serial: merge issue/live/dirty/counter deltas; replay the deferred
//     accesses against the shared crossbar/LLC/DRAM in ascending shard id,
//     stamping each record's completion cycle; charge SimEvents; run the
//     warm-up check (FinishCycle runs here, serially, until warm-up
//     settles, so a reset still precedes the triggering cycle's
//     classification exactly as the sequential ordering has it).
//  4. Serial: advance every kernel to the same next cycle — now+1 if
//     anything issued, else the minimum NextPending across shards.
//
// Repairing a wake-up one phase late is safe because a deferring cycle
// always issued (the deferred access is an issue): step 4 takes the now+1
// branch without consulting any kernel's pending wake-ups, so the
// provisional cycle is never read, and nothing else looks at the warp, its
// MSHR file or its kernel entry before the owning shard's next phase —
// Lookup/Full/Expire run inside the SM's own Tick, and a CTA launch in
// step 1 only ever schedules a unit earlier, which applyFixups respects.
package gpu

import (
	"context"
	"fmt"

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
// phase. The issuing shard writes every field but t in phase A; the
// coordinator's serial replay stamps t; the issuing shard reads the record
// back, and clears the list, at the head of its next parallel phase.
type deferredAccess struct {
	m       *sm.SM
	f       *cache.MSHRFile
	lu      int // issuing SM, local to the shard's kernel
	warp    int // issuing warp slot; -1 for stores (no wake-up to repair)
	line    uint64
	key     uint64 // MSHR merge key (== line unless the L1 is sectored)
	arrival int64  // issue cycle, pushed past a full MSHR's next completion
	issueAt int64
	t       int64 // true completion cycle, stamped by replayDeferred
	load    bool
	bypass  bool
	full    bool
}

// gpuShard is one runner: a contiguous SM group, its private timing kernel
// (unit ids local, 0 = firstSM), arena, and the per-cycle buffers the
// barrier protocol exchanges. It implements timing.Driver over its own SMs
// and sm.ProgramRecycler for their retiring programs.
type gpuShard struct {
	sim     *Simulator
	id      int
	firstSM int
	endSM   int
	tk      *timing.Kernel
	arena   *trace.Arena

	deferred  []deferredAccess
	issued    bool
	issuedD   uint64 // instructions issued this phase, merged into issuedSoFar
	liveDelta int
	ctaDirty  bool
	loads     uint64 // L1-hit load counters, merged at the barrier
	loadLat   uint64
	mshrStall uint64
}

// buildShards partitions the SMs into n contiguous groups. Contiguity is
// what lets the barrier's ascending-shard-id reduction reproduce the
// sequential kernel's ascending-global-SM drain order.
func (s *Simulator) buildShards(n int) {
	nsm := len(s.sms)
	base, rem := nsm/n, nsm%n
	s.shards = make([]*gpuShard, n)
	s.shardOfSM = make([]*gpuShard, nsm)
	first := 0
	for i := 0; i < n; i++ {
		cnt := base
		if i < rem {
			cnt++
		}
		sh := &gpuShard{sim: s, id: i, firstSM: first, endSM: first + cnt}
		sh.tk = timing.MustNew(timing.Config{Units: cnt, NoSkip: s.opt.DisableEventSkip}, sh)
		sh.arena = trace.NewArena(cnt * s.cfg.WarpsPerSM)
		// An SM issues at most one instruction per cycle, so deferred never
		// outgrows the shard's SM count — the append never reallocates.
		sh.deferred = make([]deferredAccess, 0, cnt)
		for g := first; g < sh.endSM; g++ {
			s.shardOfSM[g] = sh
			s.ports[g].sh = sh
			s.sms[g].SetRecycler(sh)
		}
		s.shards[i] = sh
		first = sh.endSM
	}
}

// Release implements sm.ProgramRecycler: a shard's retiring programs return
// to the shard's own arena (retirement happens inside the parallel tick
// phase, so a package-wide arena would race).
func (sh *gpuShard) Release(p trace.Program) {
	if sh.sim.kernelAW[sh.sim.kernelIdx] != nil {
		sh.arena.Release(p)
	}
}

// deferAccess records a post-L1 access for barrier replay and returns the
// provisional completion. Called from port.Access, inside the issuing SM's
// Tick, so IssuingWarp identifies the warp whose wake-up the next phase's
// fix-up pass must repair. Stores get no fix-up (the SM ignores their
// completion) but are still recorded: their bandwidth and LLC effects must
// replay in order.
func (sh *gpuShard) deferAccess(p *port, line, key uint64, arrival, now int64, load, bypass, full bool) int64 {
	m := sh.sim.sms[p.smID]
	warp := -1
	if load {
		warp = m.IssuingWarp()
	}
	sh.deferred = append(sh.deferred, deferredAccess{
		m:       m,
		f:       sh.sim.mshrs[p.smID],
		lu:      p.smID - sh.firstSM,
		warp:    warp,
		line:    line,
		key:     key,
		arrival: arrival,
		issueAt: now,
		load:    load,
		bypass:  bypass,
		full:    full,
	})
	return provisionalWake
}

// applyFixups lands the previous cycle's deferred loads on this shard's own
// SMs from the completion cycles the coordinator stamped, then clears the
// records. Runs at the head of the parallel phase, and serially before an
// observer sample reads MSHR occupancy.
func (sh *gpuShard) applyFixups() {
	for i := range sh.deferred {
		rec := &sh.deferred[i]
		if !rec.load {
			continue
		}
		// The MSHR allocation the sequential port did at issue time lands
		// here instead; nothing can have observed the file in between (the
		// SM's next Lookup/Full/Expire all happen inside its Tick, after
		// this pass).
		if !rec.bypass && !rec.full {
			rec.f.Allocate(rec.key, rec.t)
		}
		rdy := rec.ready()
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

// ready is the cycle a stamped load's warp wakes: its completion, under
// sm.Tick's next-cycle clamp on MemPort results.
func (rec *deferredAccess) ready() int64 {
	if rec.t <= rec.issueAt {
		return rec.issueAt + 1
	}
	return rec.t
}

// phaseA is the parallel tick phase: repair the previous cycle's deferred
// wake-ups, drain this shard's due units at the current cycle, then (once
// warm-up has settled) finish the cycle.
func (sh *gpuShard) phaseA() {
	sh.applyFixups()
	sh.issued = sh.tk.TickCycle()
	if sh.sim.shardFinish {
		sh.tk.FinishCycle()
	}
}

// timing.Driver over the shard's own SMs (unit ids local to the shard).

// TickUnit mirrors Simulator.TickUnit with shard-local issue/live/dirty
// accumulation; the coordinator merges the deltas at the barrier.
func (sh *gpuShard) TickUnit(now int64, lu int) timing.Outcome {
	s := sh.sim
	g := sh.firstSM + lu
	m := s.sms[g]
	liveBefore := m.LiveWarps()
	s.mshrs[g].Expire(now)
	k := m.Tick(now, s.ports[g])
	out := timing.Outcome{Wake: timing.NoWake, Kind: uint8(k), Issued: k == sm.Issued}
	if out.Issued {
		sh.issuedD++
	}
	if d := liveBefore - m.LiveWarps(); d > 0 {
		sh.liveDelta += d
		sh.ctaDirty = true
	}
	if m.HasReady() {
		out.Wake = now + 1
	} else if ev, ok := m.NextEvent(); ok {
		out.Wake = ev
	}
	return out
}

// AccrueStall mirrors Simulator.AccrueStall.
func (sh *gpuShard) AccrueStall(lu int, cycles uint64) {
	m := sh.sim.sms[sh.firstSM+lu]
	m.Accrue(m.StallKind(), cycles)
}

// AccrueTick mirrors Simulator.AccrueTick.
func (sh *gpuShard) AccrueTick(lu int, kind uint8) {
	sh.sim.sms[sh.firstSM+lu].Accrue(sm.TickKind(kind), 1)
}

// CycleEnd is a no-op: SimEvents and the warm-up check are the
// coordinator's, run serially at the barrier to match the sequential
// ordering exactly.
func (sh *gpuShard) CycleEnd(now int64) {}

// replayDeferred resolves the cycle's deferred accesses against the shared
// crossbar/LLC/DRAM path, walking shards in ascending id — deferred lists
// are appended in ascending local unit order, so the replay order is
// ascending global SM id, the sequential within-cycle order. It touches
// only what the coordinator owns: the shared resources, the package's load
// counters, and each record's completion stamp. The records stay in place
// for the owning shard's applyFixups, which lands them on the SM, its MSHR
// file and its kernel entry at the head of the next parallel phase — safe
// because the advance decision that follows a deferring cycle is always
// now+1 and never reads a wake-up (see the file comment).
func (s *Simulator) replayDeferred() {
	nSlices := uint64(len(s.llc))
	for _, sh := range s.shards {
		for i := range sh.deferred {
			rec := &sh.deferred[i]
			slice := int(rec.line % nSlices)
			t := s.xbar.Transfer(rec.arrival, slice, s.xferBytes)
			t += int64(s.cfg.LLCHitLatency)
			s.llcAcc++
			sliceLocal := (rec.line / nSlices) << s.lineBits
			if !s.llc[slice].Access(sliceLocal) {
				s.llcMiss++
				t = s.mem.Access(t, rec.line, s.xferBytes)
				t += int64((rec.line * 0x9e3779b9 >> 13) % 13)
			}
			t += int64(s.cfg.NoCBaseLatency)
			rec.t = t
			if rec.load {
				s.loads++
				s.loadLat += uint64(t - rec.issueAt)
				s.loadHist.Observe(float64(t - rec.issueAt))
			}
		}
	}
}

// runSharded is the sharded run loop: runEvent's control flow with Step
// replaced by the barrier protocol described at the top of this file.
func (s *Simulator) runSharded(ctx context.Context) (Stats, error) {
	pool := parallel.NewPoolLabeled(ctx, len(s.shards), "gpu")
	defer pool.Close()
	phaseA := func(i int) { s.shards[i].phaseA() }
	s.kernelStart = s.now
	iters := 0
	for {
		iters++
		if iters >= ctxCheckEvery {
			iters = 0
			select {
			case <-ctx.Done():
				return Stats{}, fmt.Errorf("gpu: %q on %s cancelled at cycle %d: %w",
					s.kernels[s.kernelIdx].Name(), s.cfg.Name, s.now, ctx.Err())
			default:
			}
		}
		if s.ctaDirty {
			s.fillCTAs()
		}
		if s.liveTotal == 0 {
			if s.nextCTA >= s.numCTAs {
				if s.stream != nil {
					s.stream.Span(s.kernelStart, s.now, "kernel", s.kernels[s.kernelIdx].Name())
					s.kernelStart = s.now
				}
				if !s.advanceKernel() {
					break
				}
				s.ctaDirty = true
				continue
			}
			s.ctaDirty = true // mirror the dense loop's unconditional refill
		}
		if s.opt.MaxCycles > 0 && s.now > s.opt.MaxCycles {
			return Stats{}, fmt.Errorf("gpu: %q on %s exceeded MaxCycles=%d",
				s.kernels[s.kernelIdx].Name(), s.cfg.Name, s.opt.MaxCycles)
		}
		pool.Run(phaseA)
		issued := false
		nDeferred := 0
		for _, sh := range s.shards {
			issued = issued || sh.issued
			s.issuedSoFar += sh.issuedD
			sh.issuedD = 0
			s.liveTotal -= sh.liveDelta
			sh.liveDelta = 0
			if sh.ctaDirty {
				s.ctaDirty = true
				sh.ctaDirty = false
			}
			s.loads += sh.loads
			s.loadLat += sh.loadLat
			s.mshrStall += sh.mshrStall
			sh.loads, sh.loadLat, sh.mshrStall = 0, 0, 0
			nDeferred += len(sh.deferred)
		}
		if nDeferred > 0 {
			s.replayDeferred()
		}
		s.events += uint64(len(s.sms))
		if !s.shardFinish {
			// Warm-up not settled: the reset check must precede the ticked
			// SMs' cycle classification, so FinishCycle runs here, serially,
			// exactly where the sequential CycleEnd/AccrueTick ordering puts
			// it. Once warm-up is done the check can never fire again and
			// FinishCycle moves into the parallel phase.
			if !s.warmupDone && s.opt.WarmupInstructions > 0 && s.issuedSoFar >= s.opt.WarmupInstructions {
				s.resetStats()
			}
			for _, sh := range s.shards {
				sh.tk.FinishCycle()
			}
			if s.warmupDone || s.opt.WarmupInstructions == 0 {
				s.shardFinish = true
			}
		}
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
			if next < s.now+1 {
				next = s.now + 1
			}
		}
		s.skipped += next - s.now - 1
		for _, sh := range s.shards {
			sh.tk.AdvanceTo(next)
		}
		s.now = next
		if s.stream != nil && s.now >= s.nextSample {
			// The sample reads MSHR occupancy, which the sequential loop
			// updated at issue: land the cycle's fix-ups now (the shards are
			// quiescent between phases) instead of at the next phase's head.
			for _, sh := range s.shards {
				sh.applyFixups()
			}
			s.sampleObs()
			for s.nextSample <= s.now {
				s.nextSample += s.sampleEvery
			}
		}
	}
	return s.stats(), nil
}
