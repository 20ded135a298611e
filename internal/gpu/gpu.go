// Package gpu assembles the full GPU timing simulator: SMs with private L1
// caches and MSHRs, a crossbar NoC, an address-interleaved shared LLC, and
// bandwidth-limited memory controllers. It plays the role Accel-Sim plays in
// the paper — the "detailed timing model" box of Figure 3 — producing the
// IPC and f_mem numbers that scale-model prediction consumes.
//
// The timing model is a schedule-ahead cycle simulator: every cycle each SM
// may issue one instruction; a memory instruction's completion time is
// computed immediately by chaining the L1 lookup, NoC transfer (bisection and
// per-slice queueing), LLC lookup, and — on an LLC miss — memory-controller
// queueing plus DRAM latency. When no SM can issue, the simulator skips
// directly to the next warp wake-up, accruing the skipped cycles to each
// SM's stall classification, so long memory stalls cost nothing to simulate.
//
// The run loop is event-driven and built on the shared cycle-advance
// kernel in internal/timing: SMs with near wake-ups sit in the kernel's
// due-wheel (one bitset per cycle over a 64-cycle horizon) and far wake-ups
// in its min-heap, so a cycle touches only the SMs that can issue, promote
// or retire at that cycle. Stalled and idle SMs pay nothing per cycle;
// their stall-classification counters are accrued lazily, one Accrue call
// per stalled interval, when they are next ticked (see AccrueStall for the
// invariant that makes this exact). This Simulator is the kernel's Driver:
// it supplies the per-SM tick (batched MSHR expiry + sm.Tick) and the
// accounting callbacks, while the kernel owns who ticks when. The previous
// tick-every-SM loop is preserved as the dense reference implementation
// (Options.UseLegacyLoop): both loops produce bit-identical Stats, which
// the golden-stats snapshot test and TestEventLoopMatchesLegacy enforce.
package gpu

import (
	"context"
	"fmt"
	"strconv"

	"gpuscale/internal/cache"
	"gpuscale/internal/config"
	"gpuscale/internal/dram"
	"gpuscale/internal/noc"
	"gpuscale/internal/obs"
	"gpuscale/internal/sm"
	"gpuscale/internal/timing"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// ctxCheckEvery is how many run-loop iterations pass between context
// cancellation checks: frequent enough that cancellation lands within
// microseconds of host time, rare enough to cost nothing per cycle.
const ctxCheckEvery = 1024

// Options tune a simulation run.
type Options struct {
	// MaxCycles aborts the simulation if it exceeds this many cycles;
	// zero means no limit.
	MaxCycles int64
	// DisableEventSkip forces cycle-by-cycle execution even when every SM
	// is stalled. Results are identical; only the host time differs. It
	// exists for the event-skip ablation benchmark.
	DisableEventSkip bool
	// UseLegacyLoop runs the dense reference loop that ticks every SM every
	// cycle instead of the event-driven scheduler. Results are bit-identical
	// by contract; only host time differs. It exists as the in-process
	// reference for the bit-identity guard and the hot-path regression
	// benchmark, and is not a supported production mode.
	UseLegacyLoop bool
	// WarmupInstructions, when positive, discards all statistics gathered
	// before this many instructions have issued: caches stay warm and
	// queues keep their state, but counters restart, so the reported
	// Stats reflect steady-state behaviour only. Cycles and IPC are then
	// measured over the post-warm-up window.
	WarmupInstructions uint64
	// Recorder attaches the observability layer (metrics registry, event
	// trace, interval sampler). Nil disables every hook: the run loop then
	// pays only nil-check branches and allocates nothing extra.
	Recorder *obs.Recorder
	// SampleEvery overrides the recorder's sampling interval, in simulated
	// cycles, for this run. Zero or negative uses the recorder's default.
	// Ignored when Recorder is nil.
	SampleEvery int64
	// Shards enables sharded execution: the simulated package is split into
	// that many groups — contiguous SM ranges on the monolithic simulator,
	// chiplet groups on MCM (chiplet.Options.Shards) — each driven by its
	// own goroutine with a deterministic cycle barrier between them
	// (docs/PARALLELISM.md). Results are bit-identical to sequential
	// execution at every shard count. 0 or 1 means sequential; values above
	// the SM count are clamped; Shards > 1 is incompatible with
	// UseLegacyLoop.
	Shards int
	// Uarch selects the microarchitecture variant, overriding a zero
	// cfg.Uarch. Setting both to different values is an error: the
	// configuration's identity must be unambiguous. The zero value defers
	// entirely to the configuration.
	Uarch uarch.Variant
}

// Stats is the result of one simulation run.
type Stats struct {
	// Cycles is the simulated execution time in SM cycles.
	Cycles int64
	// Instructions is the total number of warp instructions issued.
	Instructions uint64
	// MemInstructions counts loads and stores among Instructions.
	MemInstructions uint64
	// IPC is Instructions / Cycles aggregated over all SMs: the
	// performance metric the paper's figures plot.
	IPC float64
	// FMem is the mean over SMs of the memory-stall fraction: cycles in
	// which an SM fetched nothing because every blocked warp waited on
	// memory, divided by all cycles. This is the f_mem of Eq. 3.
	FMem float64
	// L1MissRate is misses/accesses across all private L1s.
	L1MissRate float64
	// L1Accesses and L1Misses count aggregate private-L1 traffic (the raw
	// counts behind L1MissRate).
	L1Accesses uint64
	L1Misses   uint64
	// LLCAccesses and LLCMisses count shared-LLC traffic.
	LLCAccesses uint64
	LLCMisses   uint64
	// LLCMPKI is LLC misses per thousand instructions — the unit of the
	// paper's miss-rate curves.
	LLCMPKI float64
	// NoCUtilization is the bisection busy fraction.
	NoCUtilization float64
	// NoCBytes counts bytes moved through the NoC bisection.
	NoCBytes uint64
	// DRAMUtilization is the mean memory-controller busy fraction.
	DRAMUtilization float64
	// DRAMBytes counts bytes served by the memory controllers.
	DRAMBytes uint64
	// CTAs is the number of thread blocks executed.
	CTAs uint64
	// Kernels is the number of kernels executed (1 unless NewSequence).
	Kernels int
	// MSHRStalls counts accesses delayed by a full MSHR file.
	MSHRStalls uint64
	// SkippedCycles counts cycles elided by event-skip fast-forwarding.
	SkippedCycles int64
	// SimEvents is a host-cost proxy: instructions issued plus per-cycle
	// SM ticks executed. Weak-scaling speedup (paper Fig. 7) is the ratio
	// of target SimEvents to the scale models' total.
	SimEvents uint64
	// AvgLoadLatency is the mean issue-to-data latency of loads in cycles.
	AvgLoadLatency float64
}

// Simulator is a configured GPU plus workload, ready to Run. Use New. A
// simulation may span several kernels executed back to back — a grid
// barrier between kernels, caches persisting across them — as real GPU
// applications do; see NewSequence.
type Simulator struct {
	cfg     config.SystemConfig
	kernels []trace.Workload
	opt     Options

	sms   []*sm.SM
	l1s   []*cache.Cache
	mshrs []*cache.MSHRFile
	llc   []*cache.Cache
	xbar  noc.Network
	mem   *dram.Memory

	lineBits uint
	// Variant-dependent memory-path granularity. In the default line-grain
	// L1 these equal LineSize/lineBits, keeping the access path bit-identical
	// to the pre-variant code; a sectored L1 moves and merges at sector
	// granularity while the LLC stays line-indexed.
	xferBytes   int  // bytes per NoC/DRAM transfer (line or sector)
	mshrBits    uint // address shift for MSHR merge keys
	kernelIdx   int
	nextCTA     int
	numCTAs     int
	warpsPer    int
	ctaLimit    int
	now         int64
	statsSince  int64
	issuedSoFar uint64
	warmupDone  bool
	llcAcc      uint64
	llcMiss     uint64
	loadLat     uint64
	loads       uint64
	mshrStall   uint64
	skipped     int64
	events      uint64

	// Event-driven scheduler state. All of it is preallocated in
	// NewSequence so the run loop allocates nothing in steady state. The
	// wake-up machinery (due-wheel, far-wake heap, lazy accrual intervals)
	// lives in the shared timing kernel; this Simulator is its Driver.
	ports       []*port        // one per SM, reused across RunContext calls
	tk          *timing.Kernel // owns who ticks when; persists across RunContext calls
	legacyKinds []sm.TickKind  // dense-loop per-cycle scratch
	liveTotal   int            // incrementally maintained sum of LiveWarps over SMs
	ctaDirty    bool           // CTA capacity may have changed; fillCTAs must re-scan
	progBuf     []trace.Program
	arena       *trace.Arena
	kernelAW    []trace.ArenaWorkload // per kernel: non-nil if arena-managed

	// Sharded execution state (sharded.go); nil/zero when Options.Shards
	// <= 1. shardFinish gates where FinishCycle runs: serially at the
	// barrier while the warm-up check can still fire, inside the parallel
	// tick phase once it has settled.
	shards      []*gpuShard
	shardOfSM   []*gpuShard
	shardFinish bool

	// Observability handles; all nil when Options.Recorder is nil, so
	// every hook below degrades to one predictable nil-check branch.
	stream      *obs.Stream
	scope       *obs.Scope
	loadHist    *obs.Histogram
	sampleEvery int64
	nextSample  int64
	kernelStart int64
}

// New validates cfg and workload and builds a single-kernel Simulator.
func New(cfg config.SystemConfig, w trace.Workload, opt Options) (*Simulator, error) {
	return NewSequence(cfg, []trace.Workload{w}, opt)
}

// NewSequence builds a Simulator over a sequence of kernels executed back
// to back: kernel i+1 launches only after every CTA of kernel i has
// retired (a grid barrier), while cache and memory state persist across
// kernels. Per-kernel occupancy limits apply while that kernel runs.
func NewSequence(cfg config.SystemConfig, kernels []trace.Workload, opt Options) (*Simulator, error) {
	if opt.Uarch != (uarch.Variant{}) {
		if cfg.Uarch != (uarch.Variant{}) && cfg.Uarch != opt.Uarch {
			return nil, fmt.Errorf("gpu: Options.Uarch %v conflicts with cfg.Uarch %v", opt.Uarch, cfg.Uarch)
		}
		cfg.Uarch = opt.Uarch
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(kernels) == 0 {
		return nil, fmt.Errorf("gpu: no kernels")
	}
	if opt.Shards < 0 {
		return nil, fmt.Errorf("gpu: Shards must be >= 0, got %d", opt.Shards)
	}
	nShards := opt.Shards
	if nShards > cfg.NumSMs {
		nShards = cfg.NumSMs
	}
	if nShards > 1 && opt.UseLegacyLoop {
		return nil, fmt.Errorf("gpu: Shards > 1 is incompatible with UseLegacyLoop")
	}
	maxWarpsPerCTA := 0
	for _, w := range kernels {
		if w == nil {
			return nil, fmt.Errorf("gpu: nil workload")
		}
		k := w.Kernel()
		if err := k.Validate(); err != nil {
			return nil, fmt.Errorf("gpu: workload %q: %w", w.Name(), err)
		}
		if k.WarpsPerCTA > cfg.WarpsPerSM {
			return nil, fmt.Errorf("gpu: workload %q CTA has %d warps but SMs hold only %d",
				w.Name(), k.WarpsPerCTA, cfg.WarpsPerSM)
		}
		if k.WarpsPerCTA > maxWarpsPerCTA {
			maxWarpsPerCTA = k.WarpsPerCTA
		}
	}
	k0 := kernels[0].Kernel()
	s := &Simulator{
		cfg:      cfg,
		kernels:  kernels,
		opt:      opt,
		numCTAs:  k0.NumCTAs,
		warpsPer: k0.WarpsPerCTA,
	}
	lb := uint(0)
	for 1<<lb != cfg.LineSize {
		lb++
	}
	s.lineBits = lb
	s.ctaLimit = k0.CTAsPerSMLimit
	variant := cfg.Uarch.Normalize()
	s.xferBytes = cfg.LineSize
	s.mshrBits = lb
	sectored := variant.L1 == uarch.L1Sectored
	if sectored {
		// A sectored L1 fills, merges and moves at sector granularity; the
		// LLC stays line-grain (slice selection, indexing, DRAM jitter all
		// keep using the line address).
		s.xferBytes = uarch.SectorBytes
		s.mshrBits = 0
		for 1<<s.mshrBits != uarch.SectorBytes {
			s.mshrBits++
		}
	}
	s.sms = make([]*sm.SM, cfg.NumSMs)
	s.l1s = make([]*cache.Cache, cfg.NumSMs)
	s.mshrs = make([]*cache.MSHRFile, cfg.NumSMs)
	for i := range s.sms {
		m, err := sm.NewVariant(cfg.WarpsPerSM, cfg.MaxCTAsPerSM, cfg.ComputeLatency, variant)
		if err != nil {
			return nil, err
		}
		s.sms[i] = m
		if sectored {
			s.l1s[i] = cache.MustNewSectored(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSize, uarch.SectorBytes)
		} else {
			s.l1s[i] = cache.MustNew(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSize)
		}
		s.mshrs[i] = cache.NewMSHRFile(cfg.L1MSHRs)
	}
	s.llc = make([]*cache.Cache, cfg.LLCSlices)
	for i := range s.llc {
		s.llc[i] = cache.MustNew(cfg.LLCSliceSize(), cfg.LLCWays, cfg.LineSize)
	}
	nocCfg := noc.Config{
		BisectionBytesPerCycle: cfg.BytesPerCycle(cfg.NoCBisectionGBps),
		Ports:                  cfg.LLCSlices,
		BaseLatency:            cfg.NoCBaseLatency,
	}
	switch variant.NoC {
	case uarch.RouteXbar:
		s.xbar = noc.MustNew(nocCfg)
	case uarch.RouteDeflect:
		s.xbar = noc.MustNewDeflect(nocCfg)
	default:
		panic("gpu: unreachable routing variant " + string(variant.NoC))
	}
	s.mem = dram.MustNew(dram.Config{
		Controllers:        cfg.MemControllers,
		BytesPerCyclePerMC: cfg.BytesPerCycle(cfg.MemBWPerMCGBps),
		Latency:            cfg.DRAMLatency,
	})
	// Everything the run loop needs is sized here so the hot path never
	// allocates: ports, the timing kernel (due-wheel, far-wake heap, lazy
	// accrual), the dense loop's scratch, and the CTA-launch program buffer
	// (sized to the widest CTA across the kernel sequence).
	s.ports = make([]*port, cfg.NumSMs)
	for i := range s.ports {
		s.ports[i] = &port{sim: s, smID: i}
	}
	s.tk = timing.MustNew(timing.Config{Units: cfg.NumSMs, NoSkip: opt.DisableEventSkip}, s)
	s.legacyKinds = make([]sm.TickKind, cfg.NumSMs)
	s.progBuf = make([]trace.Program, maxWarpsPerCTA)
	// The workload arena recycles programs and address generators across CTA
	// launches. Peak population is the resident-warp limit; retired programs
	// come back via the SMs' recycler hook (Release below), but only for
	// kernels that really draw from the arena — a plain Factory may hand out
	// programs it retains, which must not be pooled behind its back.
	s.arena = trace.NewArena(cfg.NumSMs * cfg.WarpsPerSM)
	s.kernelAW = make([]trace.ArenaWorkload, len(kernels))
	for i, w := range kernels {
		if aw, ok := trace.AsArenaWorkload(w); ok {
			s.kernelAW[i] = aw
		}
	}
	for _, m := range s.sms {
		m.SetRecycler(s)
	}
	if nShards > 1 {
		s.shardFinish = opt.WarmupInstructions == 0
		s.buildShards(nShards)
	}
	s.ctaDirty = true
	if rec := opt.Recorder; rec.Enabled() {
		label := cfg.Name + "/" + kernels[0].Name()
		s.stream = rec.Stream(label)
		// The metrics namespace carries the stream id so that parallel
		// runs of the same (config, workload) pair under one recorder
		// keep separate metrics.
		s.scope = rec.Scope(label + "#" + strconv.FormatInt(s.stream.ID(), 10))
		s.loadHist = s.scope.Histogram("load_latency", obs.LatencyBuckets)
		s.sampleEvery = opt.SampleEvery
		if s.sampleEvery <= 0 {
			s.sampleEvery = rec.SampleInterval()
		}
		if s.sampleEvery <= 0 {
			s.sampleEvery = obs.DefaultSampleInterval
		}
		s.nextSample = s.sampleEvery
	}
	return s, nil
}

// port adapts the simulator's memory hierarchy to one SM's MemPort. Under
// sharded execution sh is the SM's shard and Access defers everything past
// the SM-private L1/MSHR to the barrier replay.
type port struct {
	sim  *Simulator
	smID int
	sh   *gpuShard
}

// Access implements sm.MemPort: L1 (unless bypassed) → MSHR merge → NoC →
// LLC slice → memory controller → DRAM, returning the data-return cycle.
func (p *port) Access(now int64, in trace.Instr) int64 {
	s := p.sim
	line := in.Addr >> s.lineBits
	// In line-grain mode key == line; a sectored L1 merges misses per sector,
	// so distinct sectors of one line miss independently.
	key := in.Addr >> s.mshrBits
	bypass := in.Flags&trace.BypassL1 != 0
	if !bypass {
		if s.l1s[p.smID].Access(in.Addr) {
			if in.Kind == trace.Load {
				// Sharded phase A runs on a worker goroutine: count into
				// shard-local counters, merged at the barrier. The histogram
				// observation is atomic (order of float observations is the
				// one documented exemption from bit-identity).
				if p.sh != nil {
					p.sh.loads++
					p.sh.loadLat += uint64(s.cfg.L1HitLatency)
				} else {
					s.loads++
					s.loadLat += uint64(s.cfg.L1HitLatency)
				}
				s.loadHist.Observe(float64(s.cfg.L1HitLatency))
			}
			return now + int64(s.cfg.L1HitLatency)
		}
	}
	// The MSHR file reclaims completed entries lazily (the run loop's
	// per-tick Expire only sweeps when enough have piled up), but every
	// answer below counts only the misses still outstanding at now, so the
	// sweep schedule is invisible here.
	mshr := s.mshrs[p.smID]
	load := in.Kind == trace.Load
	if load && !bypass {
		if comp, ok := mshr.Lookup(now, key); ok {
			return comp // merged into an outstanding miss
		}
	}
	arrival := now
	full := mshr.Full(now)
	if full {
		if nc, ok := mshr.NextCompletion(now); ok && nc > arrival {
			arrival = nc
		}
		if p.sh != nil {
			p.sh.mshrStall++
		} else {
			s.mshrStall++
		}
	}
	if p.sh != nil {
		// Everything past the SM-private L1/MSHR touches the shared
		// crossbar/LLC/DRAM path: record it for the barrier's serial replay.
		return p.sh.deferAccess(p, line, key, arrival, now, load, bypass, full)
	}
	nSlices := uint64(len(s.llc))
	slice := int(line % nSlices)
	t := s.xbar.Transfer(arrival, slice, s.xferBytes)
	t += int64(s.cfg.LLCHitLatency)
	s.llcAcc++
	// Index the slice with the slice-select bits stripped, otherwise only
	// 1/nSlices of each slice's sets would ever be used.
	sliceLocal := (line / nSlices) << s.lineBits
	if !s.llc[slice].Access(sliceLocal) {
		s.llcMiss++
		t = s.mem.Access(t, line, s.xferBytes)
		// Deterministic per-line jitter models DRAM bank/row variation
		// and breaks warp convoys that a constant latency would
		// otherwise sustain.
		t += int64((line * 0x9e3779b9 >> 13) % 13)
	}
	t += int64(s.cfg.NoCBaseLatency) // response traversal
	if load && !bypass && !full {
		mshr.Allocate(key, t)
	}
	if load {
		s.loads++
		s.loadLat += uint64(t - now)
		s.loadHist.Observe(float64(t - now))
	}
	return t
}

// fillCTAs launches the current kernel's pending CTAs round-robin onto SMs
// with capacity, honouring the kernel's occupancy limit. Launch capacity
// changes only when a CTA retires or a new kernel starts, so the
// event-driven loop calls this only when ctaDirty is set. The per-CTA
// program slice is pooled in progBuf — LaunchCTA copies the programs into
// warp slots without retaining the slice — so a launch allocates nothing
// beyond the workload's own NewProgram; for arena-managed kernels even the
// programs come from the simulation's arena, making steady-state launches
// allocation-free end to end.
func (s *Simulator) fillCTAs() {
	s.ctaDirty = false
	w := s.kernels[s.kernelIdx]
	aw := s.kernelAW[s.kernelIdx]
	for s.nextCTA < s.numCTAs {
		launched := false
		for i := 0; i < len(s.sms) && s.nextCTA < s.numCTAs; i++ {
			m := s.sms[i]
			if !m.CanAccept(s.warpsPer) {
				continue
			}
			if s.ctaLimit > 0 && m.ResidentCTAs() >= s.ctaLimit {
				continue
			}
			progs := s.progBuf[:s.warpsPer]
			if aw != nil {
				// Sharded runs draw from the target SM's shard arena — the
				// arena its retiring programs are released into (fillCTAs is
				// serial, so touching it here is race-free).
				arena := s.arena
				if s.shardOfSM != nil {
					arena = s.shardOfSM[i].arena
				}
				for wpi := range progs {
					progs[wpi] = aw.NewProgramIn(arena, s.nextCTA, wpi)
				}
			} else {
				for wpi := range progs {
					progs[wpi] = w.NewProgram(s.nextCTA, wpi)
				}
			}
			if !s.opt.UseLegacyLoop {
				// Schedule the SM to act this cycle — launched warps are
				// ready at once. The kernel settles the SM's standing
				// classification (Idle for an empty SM) before residency
				// changes it, and drops any pending far wake-up so the SM
				// lives in exactly one wake structure.
				if sh := s.shardOfSM; sh != nil {
					sh[i].tk.ScheduleNow(i - sh[i].firstSM)
				} else {
					s.tk.ScheduleNow(i)
				}
			}
			m.LaunchCTA(progs)
			s.liveTotal += s.warpsPer
			s.nextCTA++
			launched = true
		}
		if !launched {
			return
		}
	}
}

// Release implements sm.ProgramRecycler: it returns a retired warp's
// program to the simulation's arena, but only while the running kernel is
// arena-managed (the grid barrier guarantees a kernel's last retirement
// precedes the next kernel's first launch, so kernelIdx is always the
// retiring program's kernel).
func (s *Simulator) Release(p trace.Program) {
	if s.kernelAW[s.kernelIdx] != nil {
		s.arena.Release(p)
	}
}

// advanceKernel moves to the next kernel after a grid barrier, returning
// false when the sequence is exhausted.
func (s *Simulator) advanceKernel() bool {
	if s.kernelIdx+1 >= len(s.kernels) {
		return false
	}
	s.kernelIdx++
	k := s.kernels[s.kernelIdx].Kernel()
	s.nextCTA = 0
	s.numCTAs = k.NumCTAs
	s.warpsPer = k.WarpsPerCTA
	s.ctaLimit = k.CTAsPerSMLimit
	return true
}

// Run executes the workload to completion and returns the statistics.
func (s *Simulator) Run() (Stats, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run honouring context cancellation: the run loop checks
// ctx every ctxCheckEvery iterations and aborts with ctx's error, so a
// cancelled sweep stops its in-flight simulations, not just unstarted ones.
func (s *Simulator) RunContext(ctx context.Context) (Stats, error) {
	if s.opt.UseLegacyLoop {
		return s.runLegacy(ctx)
	}
	if s.shards != nil {
		return s.runSharded(ctx)
	}
	return s.runEvent(ctx)
}

// flushAllAccruals settles every SM's counters up to s.now so aggregate
// statistics (stats, the observability registry) read exactly as if every
// cycle had been accrued eagerly. No-op under the legacy loop, whose
// accrual already is eager.
func (s *Simulator) flushAllAccruals() {
	if s.opt.UseLegacyLoop {
		return
	}
	if s.shards != nil {
		for _, sh := range s.shards {
			sh.tk.FlushAll()
		}
		return
	}
	s.tk.FlushAll()
}

// TickUnit implements timing.Driver: one due SM's visit — the MSHR
// file's per-tick Expire (it may sweep completed entries, before any Access
// this Tick can issue), the SM tick itself, and retirement bookkeeping. The
// returned Outcome carries the SM's next wake-up for the kernel's due-wheel;
// NoWake means the SM is idle and stays unscheduled until a CTA launch
// ScheduleNows it.
func (s *Simulator) TickUnit(now int64, i int) timing.Outcome {
	m := s.sms[i]
	liveBefore := m.LiveWarps()
	s.mshrs[i].Expire(now)
	k := m.Tick(now, s.ports[i])
	out := timing.Outcome{Wake: timing.NoWake, Kind: uint8(k), Issued: k == sm.Issued}
	if out.Issued {
		s.issuedSoFar++
	}
	if d := liveBefore - m.LiveWarps(); d > 0 {
		s.liveTotal -= d
		// Any warp retirement can flip CanAccept (it checks liveWarps, not
		// just CTA slots), so re-scan for launches even when no whole CTA
		// completed.
		s.ctaDirty = true
	}
	if m.HasReady() {
		out.Wake = now + 1
	} else if ev, ok := m.NextEvent(); ok {
		out.Wake = ev
	}
	return out
}

// AccrueStall implements timing.Driver: it settles one SM's standing
// classification over a whole non-ticked interval in a single Accrue call.
//
// Exactness invariant: between two ticks of an SM no warp is ready and no
// promotion is due, so liveWarps and blockedMem — the only inputs to the
// classification — cannot change (they change only inside Tick and
// LaunchCTA, and ScheduleNow flushes before a launch changes them).
// StallKind() at flush time therefore equals the classification Tick would
// have returned at every cycle of the interval.
func (s *Simulator) AccrueStall(i int, cycles uint64) {
	s.sms[i].Accrue(s.sms[i].StallKind(), cycles)
}

// AccrueTick implements timing.Driver: a ticked SM's own cycle gets the
// classification its Tick returned.
func (s *Simulator) AccrueTick(i int, kind uint8) {
	s.sms[i].Accrue(sm.TickKind(kind), 1)
}

// CycleEnd implements timing.Driver. The dense loop charges one simulation
// event per SM per visited cycle, ticked or not; SimEvents is a host-cost
// proxy for the *modelled* simulator and must not depend on the loop used.
// The warm-up check runs here, before the kernel accrues the ticked SMs'
// cycle, so the triggering cycle's classification lands in the
// post-warm-up window exactly as the dense loop orders it.
func (s *Simulator) CycleEnd(now int64) {
	s.events += uint64(len(s.sms))
	if !s.warmupDone && s.opt.WarmupInstructions > 0 && s.issuedSoFar >= s.opt.WarmupInstructions {
		s.resetStats()
	}
}

// runEvent is the event-driven run loop: a thin driver over the timing
// kernel, which per simulated cycle touches only the SMs whose wake-up is
// due, in ascending SM order, preserving the dense reference loop's
// shared-resource access order and therefore its bit-exact results. This
// loop keeps only the workload-facing control flow: CTA refills, the grid
// barrier between kernels, cancellation, cycle limits and sampling.
func (s *Simulator) runEvent(ctx context.Context) (Stats, error) {
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
			// Unreachable in practice — an idle SM always accepts a CTA —
			// but mirror the dense loop: keep trying to launch while the
			// idle cycles tick by.
			s.ctaDirty = true
		}
		if s.opt.MaxCycles > 0 && s.now > s.opt.MaxCycles {
			return Stats{}, fmt.Errorf("gpu: %q on %s exceeded MaxCycles=%d",
				s.kernels[s.kernelIdx].Name(), s.cfg.Name, s.opt.MaxCycles)
		}
		s.tk.Step()
		s.now = s.tk.Now()
		if s.stream != nil && s.now >= s.nextSample {
			s.sampleObs()
			for s.nextSample <= s.now {
				s.nextSample += s.sampleEvery
			}
		}
	}
	return s.stats(), nil
}

// runLegacy is the dense reference loop: every SM ticks every visited
// cycle. It is retained verbatim as the executable specification the
// event-driven loop is checked against (TestEventLoopMatchesLegacy, the
// golden-stats snapshot, BenchmarkSimulatorHotPath's speedup baseline).
func (s *Simulator) runLegacy(ctx context.Context) (Stats, error) {
	kinds := s.legacyKinds // same length as sms; reused as scratch
	s.fillCTAs()
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
		live := 0
		for _, m := range s.sms {
			live += m.LiveWarps()
		}
		if live == 0 && s.nextCTA >= s.numCTAs {
			if s.stream != nil {
				s.stream.Span(s.kernelStart, s.now, "kernel", s.kernels[s.kernelIdx].Name())
				s.kernelStart = s.now
			}
			if !s.advanceKernel() {
				break
			}
			s.fillCTAs()
			continue
		}
		if s.opt.MaxCycles > 0 && s.now > s.opt.MaxCycles {
			return Stats{}, fmt.Errorf("gpu: %q on %s exceeded MaxCycles=%d",
				s.kernels[s.kernelIdx].Name(), s.cfg.Name, s.opt.MaxCycles)
		}
		issued := false
		for i, m := range s.sms {
			s.mshrs[i].Expire(s.now) // per-tick expiry, as in the event loop
			kinds[i] = m.Tick(s.now, s.ports[i])
			if kinds[i] == sm.Issued {
				issued = true
				s.issuedSoFar++
			}
			s.events++
		}
		if !s.warmupDone && s.opt.WarmupInstructions > 0 && s.issuedSoFar >= s.opt.WarmupInstructions {
			s.resetStats()
		}
		if issued || s.opt.DisableEventSkip {
			for i, m := range s.sms {
				m.Accrue(kinds[i], 1)
			}
			s.now++
		} else {
			// Every SM stalled: skip to the earliest wake-up.
			next := int64(-1)
			for _, m := range s.sms {
				if ev, ok := m.NextEvent(); ok && (next < 0 || ev < next) {
					next = ev
				}
			}
			if next <= s.now {
				next = s.now + 1
			}
			w := uint64(next - s.now)
			for i, m := range s.sms {
				m.Accrue(kinds[i], w)
			}
			s.skipped += int64(w) - 1
			s.now = next
		}
		if s.stream != nil && s.now >= s.nextSample {
			s.sampleObs()
			for s.nextSample <= s.now {
				s.nextSample += s.sampleEvery
			}
		}
		s.fillCTAs()
	}
	return s.stats(), nil
}

// resetStats discards everything measured so far (the warm-up window)
// while leaving caches, queues and resident warps untouched.
func (s *Simulator) resetStats() {
	s.warmupDone = true
	s.statsSince = s.now
	for _, m := range s.sms {
		m.ResetStats()
	}
	// Event-driven loop: discard any un-flushed accrual interval that
	// precedes the reset. SMs ticked this cycle already sit at now+1 —
	// pulling them back down would double-count the triggering cycle, so
	// the kernel only raises floors, never lowers them.
	if s.shards != nil {
		for _, sh := range s.shards {
			sh.tk.RaiseAccrualFloor()
			sh.tk.ResetSkipped()
		}
	} else {
		s.tk.RaiseAccrualFloor()
	}
	for _, c := range s.l1s {
		c.ResetStats()
	}
	for _, c := range s.llc {
		c.ResetStats()
	}
	s.xbar.ResetStats()
	s.mem.ResetStats()
	s.llcAcc, s.llcMiss = 0, 0
	s.loads, s.loadLat = 0, 0
	s.mshrStall = 0
	s.skipped = 0
	s.tk.ResetSkipped()
	s.events = 0
	s.loadHist.Reset()
	if s.stream != nil {
		s.stream.Instant(s.now, "sim", "warmup-reset")
		s.kernelStart = s.now
	}
}

// sampleObs takes one interval-sampler snapshot — occupancy, queue depths,
// bandwidth utilisation — and refreshes the metrics registry. Called only
// when a recorder is attached.
func (s *Simulator) sampleObs() {
	s.flushAllAccruals()
	elapsed := s.now - s.statsSince
	liveWarps, mshrOut := 0, 0
	var instr uint64
	for i, m := range s.sms {
		liveWarps += m.LiveWarps()
		mshrOut += s.mshrs[i].Outstanding(s.now)
		instr += m.Stats().Instructions
	}
	ipc := 0.0
	if elapsed > 0 {
		ipc = float64(instr) / float64(elapsed)
	}
	s.stream.Sample(s.now, map[string]float64{
		"occupancy":        float64(liveWarps) / float64(len(s.sms)*s.cfg.WarpsPerSM),
		"ipc":              ipc,
		"mshr_outstanding": float64(mshrOut),
		"noc_util":         s.xbar.BisectionUtilization(elapsed),
		"noc_backlog":      s.xbar.MaxPortBacklog(s.now),
		"dram_util":        s.mem.Utilization(elapsed),
		"dram_backlog":     s.mem.MaxBacklog(s.now),
	})
	s.publishObs()
}

// publishObs stores the simulation's per-component metrics into the
// recorder's registry. All totals come from the same counters stats()
// reads and use Store semantics, so after a run the registry agrees
// exactly with the returned Stats no matter how often it was refreshed
// (including across a warm-up reset). No-op without a recorder.
func (s *Simulator) publishObs() {
	if s.scope == nil {
		return
	}
	elapsed := s.now - s.statsSince
	var l1Hits, l1Misses uint64
	smScope := s.scope.Sub("sm")
	l1Scope := s.scope.Sub("l1")
	mshrScope := s.scope.Sub("mshr")
	for i, m := range s.sms {
		id := strconv.Itoa(i)
		m.PublishObs(smScope.Sub(id))
		s.l1s[i].PublishObs(l1Scope.Sub(id))
		s.mshrs[i].PublishObs(mshrScope.Sub(id), s.now)
		l1Hits += s.l1s[i].Hits()
		l1Misses += s.l1s[i].Misses()
	}
	llcScope := s.scope.Sub("llc")
	for i, c := range s.llc {
		c.PublishObs(llcScope.Sub(strconv.Itoa(i)))
	}
	s.xbar.PublishObs(s.scope.Sub("noc"), elapsed, s.now)
	s.mem.PublishObs(s.scope.Sub("dram"), elapsed, s.now)
	s.scope.Counter("l1/accesses").Store(l1Hits + l1Misses)
	s.scope.Counter("l1/misses").Store(l1Misses)
	s.scope.Counter("llc/accesses").Store(s.llcAcc)
	s.scope.Counter("llc/misses").Store(s.llcMiss)
	s.scope.Counter("mshr/stalls").Store(s.mshrStall)
}

func (s *Simulator) stats() Stats {
	s.flushAllAccruals()
	var st Stats
	st.Cycles = s.now - s.statsSince
	var fmemSum float64
	var l1Hits, l1Misses uint64
	for i, m := range s.sms {
		ss := m.Stats()
		st.Instructions += ss.Instructions
		st.MemInstructions += ss.MemInstructions
		st.CTAs += ss.CTAsCompleted
		fmemSum += ss.FMem()
		l1Hits += s.l1s[i].Hits()
		l1Misses += s.l1s[i].Misses()
	}
	if st.Cycles > 0 {
		st.IPC = float64(st.Instructions) / float64(st.Cycles)
	}
	st.FMem = fmemSum / float64(len(s.sms))
	if l1Hits+l1Misses > 0 {
		st.L1MissRate = float64(l1Misses) / float64(l1Hits+l1Misses)
	}
	st.L1Accesses = l1Hits + l1Misses
	st.L1Misses = l1Misses
	st.LLCAccesses = s.llcAcc
	st.LLCMisses = s.llcMiss
	if st.Instructions > 0 {
		st.LLCMPKI = float64(s.llcMiss) / (float64(st.Instructions) / 1000)
	}
	st.NoCUtilization = s.xbar.BisectionUtilization(st.Cycles)
	st.NoCBytes = s.xbar.TotalBytes()
	st.DRAMUtilization = s.mem.Utilization(st.Cycles)
	st.DRAMBytes = s.mem.TotalBytes()
	st.Kernels = s.kernelIdx + 1
	st.MSHRStalls = s.mshrStall
	if s.loads > 0 {
		st.AvgLoadLatency = float64(s.loadLat) / float64(s.loads)
	}
	if s.shards != nil {
		// The coordinator charges skips globally; the shard kernels' own
		// counters cover only shard-local advances and are not comparable.
		st.SkippedCycles = s.skipped
	} else {
		st.SkippedCycles = s.skipped + s.tk.Skipped()
	}
	st.SimEvents = s.events + st.Instructions
	// Final registry refresh so the published totals match the Stats just
	// computed from the same counters.
	s.publishObs()
	return st
}

// Run is the one-call convenience API: simulate workload w on cfg.
func Run(cfg config.SystemConfig, w trace.Workload) (Stats, error) {
	s, err := New(cfg, w, Options{})
	if err != nil {
		return Stats{}, err
	}
	return s.Run()
}

// RunWithOptions is Run with explicit Options.
func RunWithOptions(cfg config.SystemConfig, w trace.Workload, opt Options) (Stats, error) {
	s, err := New(cfg, w, opt)
	if err != nil {
		return Stats{}, err
	}
	return s.Run()
}

// RunSequence simulates several kernels back to back (grid barriers
// between kernels, caches persisting across them) and returns the
// aggregate statistics.
func RunSequence(cfg config.SystemConfig, kernels []trace.Workload) (Stats, error) {
	return RunSequenceWithOptions(cfg, kernels, Options{})
}

// RunSequenceWithOptions is RunSequence with explicit Options.
func RunSequenceWithOptions(cfg config.SystemConfig, kernels []trace.Workload, opt Options) (Stats, error) {
	s, err := NewSequence(cfg, kernels, opt)
	if err != nil {
		return Stats{}, err
	}
	return s.Run()
}
