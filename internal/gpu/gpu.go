// Package gpu is the cycle-level GPU timing simulator: SMs with private L1
// caches and MSHRs in front of one or more memory domains. It plays the role
// Accel-Sim plays in the paper — the "detailed timing model" box of Figure 3
// — producing the IPC and f_mem numbers that scale-model prediction consumes.
//
// A memory domain is one crossbar NoC, its address-interleaved LLC slices
// and its bandwidth-limited memory controllers. A monolithic GPU (New) is one
// domain. A multi-chip-module GPU (NewMCM, paper Section VII-D) is one domain
// per chiplet, each the Table III GPU with its own SMs, plus an
// inter-chiplet link port per chiplet: pages go to the chiplet that touches
// them first, and an access to another chiplet's page pays the hop latency
// both ways and the owner's link bandwidth. CTAs are spread round-robin over
// the chiplets ("distributed", Table V) or fill one chiplet before the next
// ("contiguous"); on one domain both are ascending SM order.
//
// The timing model is a schedule-ahead cycle simulator: every cycle each SM
// may issue; a memory instruction's completion time is computed immediately
// by chaining the L1 lookup, (remote hop,) NoC transfer (bisection and
// per-slice queueing), LLC lookup, and — on an LLC miss — memory-controller
// queueing plus DRAM latency. When no SM can issue, the simulator skips
// directly to the next warp wake-up, so long memory stalls cost nothing to
// simulate: each SM classifies the cycles it was not ticked in itself, in
// one addition when it is next ticked or settled (sm.SM.Settle).
//
// The run loop is event-driven and built on the cycle-advance kernel in
// internal/timing: SMs with near wake-ups sit in the kernel's due-wheel and
// far wake-ups in its min-heap, so a cycle touches only the SMs that can
// issue, promote or retire at that cycle. The same loop runs sharded
// (Options.Shards, sharded.go): SM groups — whole domains on a multi-chiplet
// package — tick in parallel and the post-L1 path is replayed at a cycle
// barrier. The dense reference loop that ticks every SM every cycle is kept
// as Options.UseLegacyLoop; every loop produces bit-identical Stats, which
// the golden-stats snapshot and the equality suites enforce.
package gpu

import (
	"context"
	"fmt"
	"strconv"

	"gpuscale/internal/bandwidth"
	"gpuscale/internal/cache"
	"gpuscale/internal/config"
	"gpuscale/internal/dram"
	"gpuscale/internal/noc"
	"gpuscale/internal/obs"
	"gpuscale/internal/sm"
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
	// Shards enables sharded execution: the SMs are split into that many
	// contiguous groups — whole chiplets on a multi-chiplet package — each
	// driven by its own goroutine with a deterministic cycle barrier between
	// them (docs/PARALLELISM.md). Results are bit-identical to sequential
	// execution at every shard count. 0 or 1 means sequential; values above
	// the SM (chiplet) count are clamped; Shards > 1 is incompatible with
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
	// NoCUtilization is the bisection busy fraction (the mean over memory
	// domains).
	NoCUtilization float64
	// NoCBytes counts bytes moved through the NoC bisection.
	NoCBytes uint64
	// DRAMUtilization is the mean memory-controller busy fraction.
	DRAMUtilization float64
	// DRAMBytes counts bytes served by the memory controllers.
	DRAMBytes uint64
	// CTAs is the number of thread blocks executed.
	CTAs uint64
	// Kernels is the number of kernels executed.
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
	// RemoteFraction is the share of post-L1 accesses served by a remote
	// chiplet (a first-touch locality measure); 0 on one memory domain,
	// where JSON omits it.
	RemoteFraction float64 `json:",omitempty"`
}

// MCMStats is the multi-chiplet result shape of the facade and the wire
// API: the package-wide subset of Stats, projected by Stats.MCM.
type MCMStats struct {
	// Cycles is the simulated execution time.
	Cycles int64
	// Instructions and MemInstructions count issued warp instructions.
	Instructions    uint64
	MemInstructions uint64
	// IPC aggregates instructions per cycle over all SMs in the package.
	IPC float64
	// FMem is the mean SM memory-stall fraction.
	FMem float64
	// LLCMPKI is LLC misses per thousand instructions across chiplets.
	LLCMPKI float64
	// LLCMisses counts LLC misses across all chiplets.
	LLCMisses uint64
	// RemoteFraction is the share of post-L1 accesses served by a remote
	// chiplet (a first-touch locality measure).
	RemoteFraction float64
	// CTAs is the number of thread blocks executed.
	CTAs uint64
	// SimEvents is the host-cost proxy (see Stats.SimEvents).
	SimEvents uint64
}

// MCM projects st onto the multi-chiplet result shape.
func (st Stats) MCM() MCMStats {
	return MCMStats{
		Cycles:          st.Cycles,
		Instructions:    st.Instructions,
		MemInstructions: st.MemInstructions,
		IPC:             st.IPC,
		FMem:            st.FMem,
		LLCMPKI:         st.LLCMPKI,
		LLCMisses:       st.LLCMisses,
		RemoteFraction:  st.RemoteFraction,
		CTAs:            st.CTAs,
		SimEvents:       st.SimEvents,
	}
}

// domain is one memory domain: the crossbar, LLC slices and memory
// controllers one post-L1 access touches, and on a multi-chiplet package
// the chiplet's inter-chiplet link port (nil on one domain).
type domain struct {
	llc  []*cache.Cache
	xbar noc.Network
	mem  *dram.Memory
	link *bandwidth.Server
}

// counters are the memory-path tallies. Sequential loops count into the
// Simulator's; a sharded run gives each shard its own, merged at the cycle
// barrier, so no counter is shared by a parallel phase.
type counters struct {
	loads, loadLat, mshrStall, llcAcc, llcMiss uint64
}

// drainInto adds c to total and zeroes c.
func (c *counters) drainInto(total *counters) {
	total.loads += c.loads
	total.loadLat += c.loadLat
	total.mshrStall += c.mshrStall
	total.llcAcc += c.llcAcc
	total.llcMiss += c.llcMiss
	*c = counters{}
}

// Simulator is a configured GPU plus its kernel sequence, ready to run: the
// kernels execute back to back — a grid barrier between them, caches and
// memory state persisting across them — as real GPU applications do. Use
// New or NewMCM.
type Simulator struct {
	cfg     config.SystemConfig // one domain's GPU
	name    string              // the machine's configuration name
	mcm     bool                // report metrics and samples in the MCM shape
	kernels []trace.Workload
	opt     Options

	// SMs are numbered domain-major: SM i lives in domain i / cfg.NumSMs.
	sms    []*sm.SM
	l1s    []*cache.Cache
	mshrs  []*cache.MSHRFile
	doms   []*domain
	launch []int // SM visiting order of the CTA dispatcher

	// First-touch page placement; pages is nil on one domain, where every
	// access is local.
	pages    map[uint64]int // page number → owning domain
	pageBits uint
	hop      int64 // one-way inter-chiplet latency
	remote   uint64

	lineBits uint
	// Variant-dependent memory-path granularity. In the default line-grain
	// L1 these equal LineSize/lineBits, keeping the access path bit-identical
	// to the pre-variant code; a sectored L1 moves and merges at sector
	// granularity while the LLC stays line-indexed.
	xferBytes   int  // bytes per link/NoC/DRAM transfer (line or sector)
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
	ctr         counters
	skipped     int64 // dense loop only; the event loop's live in the kernels
	events      uint64

	// Run-loop state, all sized in build so the hot path never allocates.
	// A sequential run is one shard driven inline (shards[0]); a sharded run
	// has several, each with its own timing kernel and arena (sharded.go).
	ports      []*port
	shards     []*shard
	shardOfSM  []*shard
	shardOfDom []*shard // nil unless shards own whole domains
	liveTotal  int      // incrementally maintained sum of LiveWarps over SMs
	ctaDirty   bool     // CTA capacity may have changed; fillCTAs must re-scan
	progBuf    []trace.Program
	kernelAW   []trace.ArenaWorkload // per kernel: non-nil if arena-managed

	// Observability handles; all nil when Options.Recorder is nil, so
	// every hook below degrades to one predictable nil-check branch.
	stream      *obs.Stream
	scope       *obs.Scope
	loadHist    *obs.Histogram
	sampleEvery int64
	nextSample  int64
	kernelStart int64
}

// New builds a Simulator for a monolithic GPU: one memory domain.
func New(cfg config.SystemConfig, kernels []trace.Workload, opt Options) (*Simulator, error) {
	return build(cfg, nil, kernels, opt)
}

// NewMCM builds a Simulator for a multi-chip-module GPU: cfg.NumChiplets
// domains, each the cfg.Chiplet GPU, reporting in the MCM shape.
func NewMCM(cfg config.ChipletConfig, kernels []trace.Workload, opt Options) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(cfg.Chiplet, &cfg, kernels, opt)
}

// build is the one constructor: cfg is one domain's GPU, pkg the
// multi-chiplet package around it or nil.
func build(cfg config.SystemConfig, pkg *config.ChipletConfig, kernels []trace.Workload, opt Options) (*Simulator, error) {
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
	nDom, name := 1, cfg.Name
	if pkg != nil {
		nDom, name = pkg.NumChiplets, pkg.Name
	}
	nSM := nDom * cfg.NumSMs
	if opt.Shards < 0 {
		return nil, fmt.Errorf("gpu: Shards must be >= 0, got %d", opt.Shards)
	}
	units := nSM // what a shard owns: SMs, or whole domains when there are several
	if nDom > 1 {
		units = nDom
	}
	nShards := min(opt.Shards, units)
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
		name:     name,
		mcm:      pkg != nil,
		kernels:  kernels,
		opt:      opt,
		numCTAs:  k0.NumCTAs,
		warpsPer: k0.WarpsPerCTA,
		ctaLimit: k0.CTAsPerSMLimit,
	}
	for 1<<s.lineBits != cfg.LineSize {
		s.lineBits++
	}
	variant := cfg.Uarch.Normalize()
	s.xferBytes = cfg.LineSize
	s.mshrBits = s.lineBits
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
	s.sms = make([]*sm.SM, nSM)
	s.l1s = make([]*cache.Cache, nSM)
	s.mshrs = make([]*cache.MSHRFile, nSM)
	s.ports = make([]*port, nSM)
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
		s.ports[i] = &port{sim: s, smID: i, dom: i / cfg.NumSMs, ctr: &s.ctr}
	}
	nocCfg := noc.Config{
		BisectionBytesPerCycle: cfg.BytesPerCycle(cfg.NoCBisectionGBps),
		Ports:                  cfg.LLCSlices,
		BaseLatency:            cfg.NoCBaseLatency,
	}
	s.doms = make([]*domain, nDom)
	for d := range s.doms {
		dom := &domain{llc: make([]*cache.Cache, cfg.LLCSlices)}
		for i := range dom.llc {
			dom.llc[i] = cache.MustNew(cfg.LLCSliceSize(), cfg.LLCWays, cfg.LineSize)
		}
		switch variant.NoC {
		case uarch.RouteXbar:
			dom.xbar = noc.MustNew(nocCfg)
		case uarch.RouteDeflect:
			dom.xbar = noc.MustNewDeflect(nocCfg)
		default:
			panic("gpu: unreachable routing variant " + string(variant.NoC))
		}
		dom.mem = dram.MustNew(dram.Config{
			Controllers:        cfg.MemControllers,
			BytesPerCyclePerMC: cfg.BytesPerCycle(cfg.MemBWPerMCGBps),
			Latency:            cfg.DRAMLatency,
		})
		if nDom > 1 {
			dom.link = bandwidth.MustNewServer(cfg.BytesPerCycle(pkg.InterChipletGBpsPerChiplet))
		}
		s.doms[d] = dom
	}
	if nDom > 1 {
		s.pages = make(map[uint64]int, 1<<16)
		for 1<<s.pageBits != pkg.PageSize {
			s.pageBits++
		}
		s.hop = int64(pkg.InterChipletLatency)
	}
	// The CTA dispatcher's SM order: consecutive CTAs on consecutive domains
	// ("distributed"), or domain by domain ("contiguous"). Both are
	// ascending SM order on one domain.
	contiguous := pkg != nil && pkg.CTAScheduler == "contiguous"
	s.launch = make([]int, nSM)
	for g := range s.launch {
		s.launch[g] = g
		if !contiguous {
			s.launch[g] = (g%nDom)*cfg.NumSMs + g/nDom
		}
	}
	// The rest of the run loop's state: shards (timing kernels, arenas) and
	// the CTA-launch program buffer (sized to the widest CTA across the
	// kernel sequence). The arenas recycle programs and address generators
	// across CTA launches, but only for kernels that really draw from an
	// arena — a plain Factory may hand out programs it retains, which must
	// not be pooled behind its back.
	s.progBuf = make([]trace.Program, maxWarpsPerCTA)
	s.kernelAW = make([]trace.ArenaWorkload, len(kernels))
	for i, w := range kernels {
		if aw, ok := trace.AsArenaWorkload(w); ok {
			s.kernelAW[i] = aw
		}
	}
	s.buildShards(max(nShards, 1))
	s.ctaDirty = true
	if rec := opt.Recorder; rec.Enabled() {
		label := name + "/" + kernels[0].Name()
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

// port adapts the memory hierarchy to one SM's MemPort. Under sharded
// execution sh is the SM's shard and Access defers everything past the
// SM-private L1/MSHR to the barrier replay.
type port struct {
	sim  *Simulator
	smID int
	dom  int       // the SM's home domain
	ctr  *counters // the Simulator's, or the SM's shard's
	sh   *shard
}

// Access implements sm.MemPort: L1 (unless bypassed) → MSHR merge →
// (first-touch page owner) → memory domain, returning the data-return
// cycle.
func (p *port) Access(now int64, in trace.Instr) int64 {
	s := p.sim
	line := in.Addr >> s.lineBits
	// In line-grain mode key == line; a sectored L1 merges misses per sector,
	// so distinct sectors of one line miss independently.
	key := in.Addr >> s.mshrBits
	bypass := in.Flags&trace.BypassL1 != 0
	load := in.Kind == trace.Load
	if !bypass && s.l1s[p.smID].Access(in.Addr) {
		if load {
			// The histogram observation is atomic: sharded phase A runs on
			// worker goroutines (the order of float observations is the one
			// documented exemption from bit-identity).
			p.ctr.loads++
			p.ctr.loadLat += uint64(s.cfg.L1HitLatency)
			s.loadHist.Observe(float64(s.cfg.L1HitLatency))
		}
		return now + int64(s.cfg.L1HitLatency)
	}
	// The MSHR file reclaims completed entries lazily (the run loop's
	// per-tick Expire only sweeps when enough have piled up), but every
	// answer below counts only the misses still outstanding at now, so the
	// sweep schedule is invisible here.
	mshr := s.mshrs[p.smID]
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
		p.ctr.mshrStall++
	}
	page := in.Addr >> s.pageBits
	if p.sh != nil {
		// Everything past the SM-private L1/MSHR touches state shared
		// across SMs: record it for the barrier's replay.
		return p.sh.deferAccess(p, line, key, page, arrival, now, load, bypass, full)
	}
	owner := p.dom
	if s.pages != nil {
		owner = s.pageOwner(page, p.dom)
	}
	t := s.serve(p.ctr, owner, p.dom, line, arrival, now, load)
	if load && !bypass && !full {
		mshr.Allocate(key, t)
	}
	return t
}

// pageOwner returns the domain owning page, giving it to home on first
// touch, and counts a remote access.
func (s *Simulator) pageOwner(page uint64, home int) int {
	owner, seen := s.pages[page]
	if !seen {
		owner = home
		s.pages[page] = owner
	}
	if owner != home {
		s.remote++
	}
	return owner
}

// serve is the post-L1 path of one access issued from domain home and
// served by domain owner — (link →) crossbar → LLC slice → DRAM (→ link) —
// returning the completion cycle and counting into c.
func (s *Simulator) serve(c *counters, owner, home int, line uint64, arrival, issueAt int64, load bool) int64 {
	d := s.doms[owner]
	t := arrival
	remote := owner != home
	if remote {
		t = d.link.Schedule(t, s.xferBytes) + s.hop
	}
	nSlices := uint64(len(d.llc))
	slice := int(line % nSlices)
	t = d.xbar.Transfer(t, slice, s.xferBytes)
	t += int64(s.cfg.LLCHitLatency)
	c.llcAcc++
	// Index the slice with the slice-select bits stripped, otherwise only
	// 1/nSlices of each slice's sets would ever be used.
	sliceLocal := (line / nSlices) << s.lineBits
	if !d.llc[slice].Access(sliceLocal) {
		c.llcMiss++
		t = d.mem.Access(t, line, s.xferBytes)
		// Deterministic per-line jitter models DRAM bank/row variation and
		// breaks warp convoys that a constant latency would otherwise
		// sustain.
		t += int64((line * 0x9e3779b9 >> 13) % 13)
	}
	t += int64(s.cfg.NoCBaseLatency) // response traversal
	if remote {
		t += s.hop
	}
	if load {
		c.loads++
		c.loadLat += uint64(t - issueAt)
		s.loadHist.Observe(float64(t - issueAt))
	}
	return t
}

// fillCTAs launches the current kernel's pending CTAs onto SMs with
// capacity, visiting them in dispatcher order and honouring the kernel's
// occupancy limit. Launch capacity changes only when a CTA retires or a new
// kernel starts, so the event-driven loop calls this only when ctaDirty is
// set. The per-CTA program slice is pooled in progBuf — LaunchCTA copies the
// programs into warp slots without retaining the slice — so a launch
// allocates nothing beyond the workload's own NewProgram; for arena-managed
// kernels even the programs come from the shard's arena, making
// steady-state launches allocation-free end to end.
func (s *Simulator) fillCTAs() {
	s.ctaDirty = false
	w := s.kernels[s.kernelIdx]
	aw := s.kernelAW[s.kernelIdx]
	for s.nextCTA < s.numCTAs {
		launched := false
		for _, i := range s.launch {
			if s.nextCTA >= s.numCTAs {
				break
			}
			m := s.sms[i]
			if !m.CanAccept(s.warpsPer) {
				continue
			}
			if s.ctaLimit > 0 && m.ResidentCTAs() >= s.ctaLimit {
				continue
			}
			sh := s.shardOfSM[i]
			progs := s.progBuf[:s.warpsPer]
			if aw != nil {
				// Draw from the arena the SM's retiring programs are released
				// into (fillCTAs is serial, so touching it here is race-free).
				for wpi := range progs {
					progs[wpi] = aw.NewProgramIn(sh.arena, s.nextCTA, wpi)
				}
			} else {
				for wpi := range progs {
					progs[wpi] = w.NewProgram(s.nextCTA, wpi)
				}
			}
			// The cycles before the launch keep the SM's classification
			// from before it (Idle for an empty SM).
			m.Settle(s.now)
			if !s.opt.UseLegacyLoop {
				// Schedule the SM to act this cycle — launched warps are
				// ready at once. The kernel drops any pending far wake-up
				// so the SM lives in exactly one wake structure.
				sh.tk.ScheduleNow(i - sh.firstSM)
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

// RunContext runs the kernels to completion and returns their statistics,
// on one memory domain or several. The run loop checks ctx every
// ctxCheckEvery iterations and aborts with ctx's error, so a cancelled
// sweep stops its in-flight simulations, not just unstarted ones.
func (s *Simulator) RunContext(ctx context.Context) (Stats, error) {
	var err error
	if s.opt.UseLegacyLoop {
		err = s.runLegacy(ctx)
	} else {
		err = s.runEvent(ctx)
	}
	if err != nil {
		return Stats{}, err
	}
	return s.stats(), nil
}

// interrupted polls ctx (every ctxCheckEvery calls) and the cycle limit.
func (s *Simulator) interrupted(ctx context.Context, iters *int) error {
	if *iters++; *iters >= ctxCheckEvery {
		*iters = 0
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("gpu: %q on %s cancelled at cycle %d: %w",
				s.kernels[s.kernelIdx].Name(), s.name, s.now, err)
		}
	}
	if s.opt.MaxCycles > 0 && s.now > s.opt.MaxCycles {
		return fmt.Errorf("gpu: %q on %s exceeded MaxCycles=%d",
			s.kernels[s.kernelIdx].Name(), s.name, s.opt.MaxCycles)
	}
	return nil
}

// kernelDone closes the running kernel's trace span and moves to the next
// kernel, returning false when the sequence is exhausted.
func (s *Simulator) kernelDone() bool {
	if s.stream != nil {
		s.stream.Span(s.kernelStart, s.now, "kernel", s.kernels[s.kernelIdx].Name())
		s.kernelStart = s.now
	}
	return s.advanceKernel()
}

// endCycle is the serial end of a visited cycle: it merges the shards'
// tick deltas and counters, charges one simulation event per SM — ticked or
// not, since SimEvents is a host-cost proxy for the *modelled* simulator and
// must not depend on the loop used — and runs the warm-up check. A reset
// here keeps the triggering cycle in the post-warm-up window
// (sm.SM.ResetStats), exactly as the dense loop orders it.
func (s *Simulator) endCycle() {
	for _, sh := range s.shards {
		s.issuedSoFar += sh.issuedD
		s.liveTotal -= sh.liveDelta
		s.ctaDirty = s.ctaDirty || sh.ctaDirty
		sh.issuedD, sh.liveDelta, sh.ctaDirty = 0, 0, false
		sh.ctr.drainInto(&s.ctr)
	}
	s.events += uint64(len(s.sms))
	if !s.warmupDone && s.opt.WarmupInstructions > 0 && s.issuedSoFar >= s.opt.WarmupInstructions {
		s.resetStats()
	}
}

// runEvent is the event-driven run loop: per visited cycle the timing
// kernel touches only the SMs whose wake-up is due, in ascending SM order,
// preserving the dense reference loop's shared-resource access order and
// therefore its bit-exact results. Sequentially that is one kernel Step; a
// sharded run steps every shard's kernel under the barrier protocol
// (stepSharded). This loop keeps the workload-facing control flow: CTA
// refills, the grid barrier between kernels, cancellation, cycle limits and
// sampling.
func (s *Simulator) runEvent(ctx context.Context) error {
	var pb *phases
	if len(s.shards) > 1 {
		pb = s.newPhases(ctx)
		defer pb.pool.Close()
	}
	tk := s.shards[0].tk
	s.kernelStart = s.now
	iters := 0
	for {
		if s.ctaDirty {
			s.fillCTAs()
		}
		if s.liveTotal == 0 {
			if s.nextCTA >= s.numCTAs {
				if !s.kernelDone() {
					return nil
				}
				s.ctaDirty = true
				continue
			}
			// Unreachable in practice — an idle SM always accepts a CTA —
			// but mirror the dense loop: keep trying to launch while the
			// idle cycles tick by.
			s.ctaDirty = true
		}
		if err := s.interrupted(ctx, &iters); err != nil {
			return err
		}
		if pb != nil {
			s.stepSharded(pb)
		} else {
			tk.Step()
			s.now = tk.Now()
		}
		if s.stream != nil && s.now >= s.nextSample {
			s.sampleObs()
		}
	}
}

// runLegacy is the dense reference loop: every SM ticks every visited
// cycle. It is the executable specification the event-driven loop is
// checked against (the equality suites, the golden-stats snapshot,
// bench's gpu.event_vs_dense).
func (s *Simulator) runLegacy(ctx context.Context) error {
	s.fillCTAs()
	s.kernelStart = s.now
	iters := 0
	for {
		live := 0
		for _, m := range s.sms {
			live += m.LiveWarps()
		}
		if live == 0 && s.nextCTA >= s.numCTAs {
			if !s.kernelDone() {
				return nil
			}
			s.fillCTAs()
			continue
		}
		if err := s.interrupted(ctx, &iters); err != nil {
			return err
		}
		issued := false
		for i, m := range s.sms {
			s.mshrs[i].Expire(s.now) // per-tick expiry, as in the event loop
			if m.Tick(s.now, s.ports[i]) == sm.Issued {
				issued = true
				s.issuedSoFar++
			}
			s.events++
		}
		if !s.warmupDone && s.opt.WarmupInstructions > 0 && s.issuedSoFar >= s.opt.WarmupInstructions {
			s.resetStats()
		}
		if issued || s.opt.DisableEventSkip {
			s.now++
		} else {
			// Every SM stalled: skip to the earliest wake-up. Each SM
			// classifies the skipped cycles at its next Tick or Settle, by
			// StallKind — the kind its stalled Tick just returned.
			next := int64(-1)
			for _, m := range s.sms {
				if ev, ok := m.NextEvent(); ok && (next < 0 || ev < next) {
					next = ev
				}
			}
			if next <= s.now {
				next = s.now + 1
			}
			s.skipped += next - s.now - 1
			s.now = next
		}
		if s.stream != nil && s.now >= s.nextSample {
			s.sampleObs()
		}
		s.fillCTAs()
	}
}

// settleSMs brings every SM's cycle counters up to s.now so aggregate
// statistics (stats, the observability registry) read exactly as if every
// SM had been ticked every cycle.
func (s *Simulator) settleSMs() {
	for _, m := range s.sms {
		m.Settle(s.now)
	}
}

// resetStats discards everything measured so far (the warm-up window)
// while leaving caches, queues and resident warps untouched.
func (s *Simulator) resetStats() {
	s.warmupDone = true
	s.statsSince = s.now
	for _, m := range s.sms {
		m.ResetStats(s.now)
	}
	for _, sh := range s.shards {
		sh.tk.ResetSkipped()
	}
	for _, c := range s.l1s {
		c.ResetStats()
	}
	for _, d := range s.doms {
		for _, c := range d.llc {
			c.ResetStats()
		}
		d.xbar.ResetStats()
		d.mem.ResetStats()
		if d.link != nil {
			d.link.ResetStats()
		}
	}
	s.ctr = counters{}
	s.remote = 0
	s.skipped = 0
	s.events = 0
	s.loadHist.Reset()
	if s.stream != nil {
		s.stream.Instant(s.now, "sim", "warmup-reset")
		s.kernelStart = s.now
	}
}

// sampleObs takes one interval-sampler snapshot, refreshes the metrics
// registry and schedules the next sample. Called only when a recorder is
// attached. The series are the monolithic shape's — occupancy, IPC, MSHR
// occupancy, NoC and DRAM utilisation and backlog — or the MCM shape's:
// occupancy, remote-access share and the worst link backlog.
func (s *Simulator) sampleObs() {
	// The sample reads MSHR occupancy, which the sequential loop updates at
	// issue: land a sharded cycle's fix-ups first (the shards are quiescent
	// between phases) instead of at the next phase's head.
	for _, sh := range s.shards {
		sh.applyFixups()
	}
	s.settleSMs()
	elapsed := s.now - s.statsSince
	liveWarps, mshrOut := 0, 0
	var instr uint64
	for i, m := range s.sms {
		liveWarps += m.LiveWarps()
		mshrOut += s.mshrs[i].Outstanding(s.now)
		instr += m.Stats().Instructions
	}
	vals := map[string]float64{
		"occupancy": float64(liveWarps) / float64(len(s.sms)*s.cfg.WarpsPerSM),
	}
	if s.mcm {
		vals["remote_fraction"] = 0
		if s.ctr.llcAcc > 0 {
			vals["remote_fraction"] = float64(s.remote) / float64(s.ctr.llcAcc)
		}
		var backlog float64
		for _, d := range s.doms {
			if d.link != nil {
				backlog = max(backlog, d.link.Backlog(s.now))
			}
		}
		vals["link_backlog"] = backlog
	} else {
		d := s.doms[0]
		vals["ipc"] = 0
		if elapsed > 0 {
			vals["ipc"] = float64(instr) / float64(elapsed)
		}
		vals["mshr_outstanding"] = float64(mshrOut)
		vals["noc_util"] = d.xbar.BisectionUtilization(elapsed)
		vals["noc_backlog"] = d.xbar.MaxPortBacklog(s.now)
		vals["dram_util"] = d.mem.Utilization(elapsed)
		vals["dram_backlog"] = d.mem.MaxBacklog(s.now)
	}
	s.stream.Sample(s.now, vals)
	s.publishObs()
	for s.nextSample <= s.now {
		s.nextSample += s.sampleEvery
	}
}

// publishObs stores the simulation's per-component metrics into the
// recorder's registry: per domain — the root scope on a monolithic GPU,
// chiplet/<c> on a multi-chiplet package — its SMs, L1s, MSHR files, LLC
// slices, NoC, DRAM (and link), then the package aggregates. All totals come
// from the same counters stats() reads and use Store semantics, so after a
// run the registry agrees exactly with the returned statistics no matter
// how often it was refreshed (including across a warm-up reset). No-op
// without a recorder.
func (s *Simulator) publishObs() {
	if s.scope == nil {
		return
	}
	elapsed := s.now - s.statsSince
	var l1Hits, l1Misses uint64
	for di, d := range s.doms {
		ds := s.scope
		if s.mcm {
			ds = s.scope.Sub("chiplet").Sub(strconv.Itoa(di))
		}
		smScope, l1Scope, mshrScope := ds.Sub("sm"), ds.Sub("l1"), ds.Sub("mshr")
		for j := 0; j < s.cfg.NumSMs; j++ {
			i := di*s.cfg.NumSMs + j
			id := strconv.Itoa(j)
			s.sms[i].PublishObs(smScope.Sub(id))
			s.l1s[i].PublishObs(l1Scope.Sub(id))
			s.mshrs[i].PublishObs(mshrScope.Sub(id), s.now)
			l1Hits += s.l1s[i].Hits()
			l1Misses += s.l1s[i].Misses()
		}
		llcScope := ds.Sub("llc")
		for i, c := range d.llc {
			c.PublishObs(llcScope.Sub(strconv.Itoa(i)))
		}
		d.xbar.PublishObs(ds.Sub("noc"), elapsed, s.now)
		d.mem.PublishObs(ds.Sub("dram"), elapsed, s.now)
		if s.mcm {
			var linkBytes uint64
			if d.link != nil {
				linkBytes = d.link.TotalBytes()
			}
			ds.Counter("link/bytes").Store(linkBytes)
		}
	}
	s.scope.Counter("l1/accesses").Store(l1Hits + l1Misses)
	s.scope.Counter("l1/misses").Store(l1Misses)
	s.scope.Counter("llc/accesses").Store(s.ctr.llcAcc)
	s.scope.Counter("llc/misses").Store(s.ctr.llcMiss)
	s.scope.Counter("mshr/stalls").Store(s.ctr.mshrStall)
	if s.mcm {
		s.scope.Counter("remote_accesses").Store(s.remote)
		s.scope.Counter("accesses").Store(s.ctr.llcAcc)
	}
}

// stats settles every SM's cycle counters and totals the run's statistics.
func (s *Simulator) stats() Stats {
	s.settleSMs()
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
	st.LLCAccesses = s.ctr.llcAcc
	st.LLCMisses = s.ctr.llcMiss
	if st.Instructions > 0 {
		st.LLCMPKI = float64(s.ctr.llcMiss) / (float64(st.Instructions) / 1000)
	}
	var nocUtil, dramUtil float64
	for _, d := range s.doms {
		nocUtil += d.xbar.BisectionUtilization(st.Cycles)
		st.NoCBytes += d.xbar.TotalBytes()
		dramUtil += d.mem.Utilization(st.Cycles)
		st.DRAMBytes += d.mem.TotalBytes()
	}
	st.NoCUtilization = nocUtil / float64(len(s.doms))
	st.DRAMUtilization = dramUtil / float64(len(s.doms))
	st.Kernels = s.kernelIdx + 1
	st.MSHRStalls = s.ctr.mshrStall
	if s.ctr.loads > 0 {
		st.AvgLoadLatency = float64(s.ctr.loadLat) / float64(s.ctr.loads)
	}
	// Every shard kernel advances over the same cycles, so shard 0's count
	// is the machine's; the dense loop counts its own.
	st.SkippedCycles = s.skipped + s.shards[0].tk.Skipped()
	st.SimEvents = s.events + st.Instructions
	if st.LLCAccesses > 0 {
		st.RemoteFraction = float64(s.remote) / float64(st.LLCAccesses)
	}
	// Final registry refresh so the published totals match the statistics
	// just computed from the same counters.
	s.publishObs()
	return st
}
