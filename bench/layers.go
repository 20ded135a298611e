package main

import (
	"fmt"
	"time"

	"gpuscale"
	"gpuscale/internal/cache"
	"gpuscale/internal/dram"
	"gpuscale/internal/mrc"
	"gpuscale/internal/noc"
	"gpuscale/internal/sm"
	"gpuscale/internal/timing"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
)

// unitCosts is the host cost of one call into each simulator component,
// measured by replaying the component's public hot function on its own
// over the benchmark's own access stream (the warp-interleaved lines of
// bfs and dct) with 16-SM scale-model geometry. Multiplied by a run's
// exact counts they estimate each component's share of a cell's host time.
// They are estimates: a stand-alone replay has warmer caches and better
// branch prediction than the same call inside the run loop, and neighbouring
// calls overlap in the pipeline, so the shares need not sum to one.
type unitCosts struct {
	l1, l1Sectored, llc, mshr, xbar, deflect, dram, smTick, step, next float64 // ns per call
}

func (u unitCosts) report(r *result) {
	r.set("cache.l1_access_ns", u.l1)
	r.set("cache.l1_sectored_access_ns", u.l1Sectored)
	r.set("cache.llc_access_ns", u.llc)
	r.set("cache.mshr_ns", u.mshr)
	r.set("noc.transfer_ns", u.xbar)
	r.set("noc.deflect_transfer_ns", u.deflect)
	r.set("dram.access_ns", u.dram)
	r.set("sm.tick_ns", u.smTick)
	r.set("timing.step_ns", u.step)
	r.set("trace.next_ns", u.next)
}

// replayReps is how often each replay runs; the median is reported.
const replayReps = 3

// nsPerCall runs fn replayReps times; fn returns how many calls it made.
func nsPerCall(fn func() int) float64 {
	xs := make([]float64, replayReps)
	for i := range xs {
		t0 := time.Now()
		n := fn()
		xs[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(xs)
}

// fixedPort is a memory hierarchy that answers every access after a fixed
// latency, so that sm.Tick is timed without the caches behind it.
type fixedPort struct{ latency int64 }

func (p fixedPort) Access(now int64, _ trace.Instr) int64 { return now + p.latency }

// idleDriver is the cheapest timing.Driver: units wake a few cycles apart
// and half of them issue, so Step exercises the wheel, the skip and the
// accrual bookkeeping with nothing behind them. It counts the unit ticks
// the kernel dispatched.
type idleDriver struct{ ticks int }

func (d *idleDriver) TickUnit(now int64, unit int) timing.Outcome {
	d.ticks++
	return timing.Outcome{Wake: now + 1 + int64(unit&3), Issued: unit&1 == 0}
}
func (*idleDriver) AccrueStall(int, uint64) {}
func (*idleDriver) AccrueTick(int, uint8)   {}
func (*idleDriver) CycleEnd(int64)          {}

func replayComponents(toy bool) (unitCosts, error) {
	var u unitCosts
	cfg, err := gpuscale.Scale(gpuscale.Baseline128(), 16)
	if err != nil {
		return u, err
	}
	streamCap := 1 << 20
	if toy {
		streamCap = 1 << 14
	}
	var lines []uint64
	var works []gpuscale.Workload
	for _, name := range []string{"bfs", "dct"} {
		b, err := gpuscale.BenchmarkByName(name)
		if err != nil {
			return u, err
		}
		works = append(works, b.Workload)
		ls, _, err := mrc.InterleavedStream(b.Workload, cfg.LineSize)
		if err != nil {
			return u, err
		}
		if len(ls) > streamCap {
			ls = ls[:streamCap]
		}
		lines = append(lines, ls...)
	}
	if len(lines) == 0 {
		return u, fmt.Errorf("empty access stream")
	}
	lineBits := uint(0)
	for 1<<lineBits != cfg.LineSize {
		lineBits++
	}
	slices := uint64(cfg.LLCSlices)

	l1, err := cache.New(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSize)
	if err != nil {
		return u, err
	}
	u.l1 = nsPerCall(func() int {
		for _, l := range lines {
			l1.Access(l << lineBits)
		}
		return len(lines)
	})
	sec, err := cache.NewSectored(cfg.L1SizeBytes, cfg.L1Ways, cfg.LineSize, uarch.SectorBytes)
	if err != nil {
		return u, err
	}
	u.l1Sectored = nsPerCall(func() int {
		for i, l := range lines {
			sec.Access(l<<lineBits | uint64(i&3)*uarch.SectorBytes)
		}
		return len(lines)
	})
	llc, err := cache.New(cfg.LLCSliceSize(), cfg.LLCWays, cfg.LineSize)
	if err != nil {
		return u, err
	}
	u.llc = nsPerCall(func() int {
		for _, l := range lines {
			llc.Access((l / slices) << lineBits) // slice-local address, as the simulators index a slice
		}
		return len(lines)
	})

	// One L1 miss as the run loops handle it: reclaim, look for a miss to
	// merge into, allocate if there is room. An SM sends a miss every few
	// cycles, not every cycle, which sets how full the file runs.
	mshr := cache.NewMSHRFile(cfg.L1MSHRs)
	missLatency := int64(cfg.LLCHitLatency + 2*cfg.NoCBaseLatency)
	u.mshr = nsPerCall(func() int {
		for i, l := range lines {
			now := int64(i) * 4
			mshr.Expire(now)
			if _, ok := mshr.Lookup(now, l); !ok && !mshr.Full(now) {
				mshr.Allocate(l, now+missLatency)
			}
		}
		return len(lines)
	})

	nocCfg := noc.Config{
		BisectionBytesPerCycle: cfg.BytesPerCycle(cfg.NoCBisectionGBps),
		Ports:                  cfg.LLCSlices,
		BaseLatency:            cfg.NoCBaseLatency,
	}
	xbar, err := noc.New(nocCfg)
	if err != nil {
		return u, err
	}
	deflect, err := noc.NewDeflect(nocCfg)
	if err != nil {
		return u, err
	}
	for _, n := range []struct {
		net noc.Network
		out *float64
	}{{xbar, &u.xbar}, {deflect, &u.deflect}} {
		*n.out = nsPerCall(func() int {
			for i, l := range lines {
				n.net.Transfer(int64(i/4), int(l%slices), cfg.LineSize)
			}
			return len(lines)
		})
	}
	mem, err := dram.New(dram.Config{
		Controllers:        cfg.MemControllers,
		BytesPerCyclePerMC: cfg.BytesPerCycle(cfg.MemBWPerMCGBps),
		Latency:            cfg.DRAMLatency,
	})
	if err != nil {
		return u, err
	}
	u.dram = nsPerCall(func() int {
		for i, l := range lines {
			mem.Access(int64(i/4), l, cfg.LineSize)
		}
		return len(lines)
	})

	ctas := 256
	if toy {
		ctas = 4
	}
	u.next = nsPerCall(func() int {
		n := 0
		for _, w := range works {
			k := w.Kernel()
			for c := 0; c < ctas && c < k.NumCTAs; c++ {
				for wp := 0; wp < k.WarpsPerCTA; wp++ {
					p := w.NewProgram(c, wp)
					for _, ok := p.Next(); ok; _, ok = p.Next() {
						n++
					}
					n++ // the call that reports the end
				}
			}
		}
		return n
	})

	// sm.Tick with the clock skipping to the next wake-up, as the event loop
	// drives it: nearly every tick issues. (A tick that finds no warp ready
	// returns at once; what a stalled tick costs a run is the kernel's
	// dispatch and the run loop around it, not sm.)
	smNS := make([]float64, replayReps)
	for rep := range smNS {
		ticks := 0
		for _, w := range works {
			n, d, err := tickSM(cfg, w, ctas)
			if err != nil {
				return u, err
			}
			ticks += n
			smNS[rep] += float64(d)
		}
		smNS[rep] /= float64(ticks)
	}
	u.smTick = median(smNS)

	steps := 1 << 20
	if toy {
		steps = 1 << 12
	}
	drv := &idleDriver{}
	k, err := timing.New(timing.Config{Units: cfg.NumSMs}, drv)
	if err != nil {
		return u, err
	}
	for unit := 0; unit < cfg.NumSMs; unit++ {
		k.ScheduleNow(unit)
	}
	// Kernel.Step's cost follows the unit ticks it dispatches, so it is
	// reported per dispatched tick, not per call.
	u.step = nsPerCall(func() int {
		drv.ticks = 0
		for i := 0; i < steps; i++ {
			k.Step()
		}
		return drv.ticks
	})
	return u, nil
}

// tickSM drives one SM through the first ctas thread blocks of w against a
// fixed-latency memory, launching blocks as slots free up and skipping to
// the next wake-up when nothing can issue. It returns how often it called
// Tick and how long that took; the programs are built before its clock
// starts.
func tickSM(cfg gpuscale.SystemConfig, w gpuscale.Workload, ctas int) (ticks int, d time.Duration, err error) {
	m, err := sm.New(cfg.WarpsPerSM, cfg.MaxCTAsPerSM, cfg.ComputeLatency)
	if err != nil {
		return 0, 0, err
	}
	k := w.Kernel()
	if ctas > k.NumCTAs {
		ctas = k.NumCTAs
	}
	progs := make([][]trace.Program, ctas)
	for c := range progs {
		progs[c] = make([]trace.Program, k.WarpsPerCTA)
		for wp := range progs[c] {
			progs[c][wp] = w.NewProgram(c, wp)
		}
	}
	port := fixedPort{latency: int64(cfg.LLCHitLatency + 2*cfg.NoCBaseLatency)}
	next := 0
	t0 := time.Now()
	for now := int64(0); ; {
		for next < ctas && m.CanAccept(k.WarpsPerCTA) {
			m.LaunchCTA(progs[next])
			next++
		}
		kind := m.Tick(now, port)
		ticks++
		switch {
		case kind == sm.Idle && next == ctas:
			return ticks, time.Since(t0), nil
		case kind == sm.Issued || kind == sm.Idle:
			now++
		default:
			if at, ok := m.NextEvent(); ok && at > now {
				now = at
			} else {
				now++
			}
		}
	}
}

// shares estimates where each cell's host time went: every component's
// unit cost times the run's exact count of calls into it, as a share of
// the cell's host time. What is left is glue — the run loop itself, CTA
// dispatch, statistics, and everything the replays flatter. chiplet.Stats
// exposes fewer counters than gpu.Stats, so on MCM cells the LLC, NoC and
// MSHR shares stay inside glue.
func (w *cycleWorkload) shares(r *result, cr *cellRuns, u unitCosts) {
	cols := []string{"sm %", "l1 %", "mshr %", "noc %", "llc %", "dram %", "timing %", "glue %", "(trace.next %)"}
	var glue []float64
	r.table("estimated share of host time (unit cost x exact count; estimates, see README)", cols, func(add func(string, ...float64)) {
		for i, st := range cr.stats {
			host := float64(cr.times[i][0])
			pct := func(calls uint64, ns float64) float64 { return 100 * float64(calls) * ns / host }
			// SimEvents counts instructions plus SM ticks. The ticks that
			// issue (one per instruction) are charged to sm; every tick,
			// issuing or stalled, is charged to the timing kernel that
			// dispatched it.
			ticks := st.events() - st.instructions()
			smShare := pct(st.instructions(), u.smTick)
			var row []float64
			if s := st.Sim; s != nil {
				line := uint64(w.cells[i].sys.LineSize)
				row = []float64{
					smShare,
					pct(s.L1Accesses, u.l1),
					pct(s.L1Misses, u.mshr),
					pct(s.NoCBytes/line, u.xbar),
					pct(s.LLCAccesses, u.llc),
					pct(s.DRAMBytes/line, u.dram),
					pct(ticks, u.step),
				}
			} else {
				m := st.MCM
				row = []float64{
					smShare,
					pct(m.MemInstructions, u.l1),
					0, 0, 0,
					pct(m.LLCMisses, u.dram),
					pct(ticks, u.step),
				}
			}
			g := 100.0
			for _, x := range row {
				g -= x
			}
			glue = append(glue, g)
			// trace.Program.Next runs inside sm.Tick; its share is shown
			// beside the sm share, not added to it.
			row = append(row, g, pct(st.instructions(), u.next))
			add(st.Label, row...)
		}
	})
	if w.name == "cycle-mcm" {
		r.set("chiplet.glue_share", median(glue))
	} else {
		r.set("gpu.glue_share", median(glue))
	}
}
