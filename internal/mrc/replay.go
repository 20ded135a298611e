package mrc

// The functional sweep's engine: a workload's memory behaviour extracted
// once into an immutable trace, and the cache-only replay of that trace on
// one configuration. FunctionalSweepParallel (mrc.go) runs one extraction
// and one replay per configuration; docs/ARCHITECTURE.md, "Miss-rate-curve
// sweep", has the measurements behind the layout choices below.

import (
	"gpuscale/internal/cache"
	"gpuscale/internal/config"
	"gpuscale/internal/trace"
)

// replaysPerProc is how many replays per processor the default bound keeps
// in flight. More than one lets the Go scheduler level replays of unequal
// length — five similar replays dealt whole to two processors finish 3:2,
// time-sliced they finish together (measured 11-14 % sooner on bfs and dct
// on two cores) — while a long ladder still cannot have every
// configuration's caches allocated at once.
const replaysPerProc = 3

// memTrace is what a sweep needs of a workload, extracted once: every
// warp's memory accesses in program order and the grid's instruction total.
// It is immutable after extract, so any number of replays may read it
// concurrently.
type memTrace struct {
	kernel trace.KernelSpec
	// addrs holds the byte addresses of warp 0's accesses, then warp 1's, …
	// in (cta, warp) order; warp i owns addrs[start[i]:start[i+1]].
	addrs []uint64
	start []int
	// bypass[j] marks addrs[j] as a BypassL1 access; nil when none is.
	bypass []bool
	instrs uint64
}

// extract walks every warp program of w once. Compute instructions are
// counted, not visited (trace.NextMem).
func extract(w trace.Workload) (*memTrace, error) {
	k := w.Kernel()
	if err := k.Validate(); err != nil {
		return nil, err
	}
	tr := &memTrace{kernel: k, start: make([]int, 0, k.TotalWarps()+1)}
	for c := 0; c < k.NumCTAs; c++ {
		for wp := 0; wp < k.WarpsPerCTA; wp++ {
			tr.start = append(tr.start, len(tr.addrs))
			p := w.NewProgram(c, wp)
			for {
				in, n, ok := trace.NextMem(p)
				tr.instrs += uint64(n)
				if !ok {
					break
				}
				if in.Flags&trace.BypassL1 != 0 && tr.bypass == nil {
					tr.bypass = make([]bool, len(tr.addrs), cap(tr.addrs))
				}
				tr.addrs = append(tr.addrs, in.Addr)
				if tr.bypass != nil {
					tr.bypass = append(tr.bypass, in.Flags&trace.BypassL1 != 0)
				}
			}
		}
	}
	tr.start = append(tr.start, len(tr.addrs))
	return tr, nil
}

// span is the unread part of one warp's accesses: addrs[pos:end].
type span struct{ pos, end int }

// liveRing is a round-robin queue of the warps that still have accesses, in
// warp order. One lap reads live[r:] and writes the survivors back to
// live[:w] (w <= r, so nothing unread is overwritten); at the end of a lap
// the survivors become the ring. Exhausted warps therefore cost nothing
// after the lap they end in.
type liveRing struct {
	live []span
	r, w int
}

// rings deals the grid's warps with accesses onto numGroups rings, CTA c
// going to ring c mod numGroups.
func (tr *memTrace) rings(numGroups int) []liveRing {
	rs := make([]liveRing, numGroups)
	perGroup := (tr.kernel.NumCTAs + numGroups - 1) / numGroups * tr.kernel.WarpsPerCTA
	for c, i := 0, 0; c < tr.kernel.NumCTAs; c++ {
		rg := &rs[c%numGroups]
		for wp := 0; wp < tr.kernel.WarpsPerCTA; wp, i = wp+1, i+1 {
			if tr.start[i] == tr.start[i+1] {
				continue
			}
			if rg.live == nil {
				rg.live = make([]span, 0, perGroup)
			}
			rg.live = append(rg.live, span{tr.start[i], tr.start[i+1]})
		}
	}
	return rs
}

// take hands out the next warp's turn: up to burst of its accesses, as the
// index of the first and their number. The warp stays in the ring while it
// has more, and a finished lap starts the next. The ring must not be empty.
func (rg *liveRing) take(burst int) (pos, n int) {
	sp := rg.live[rg.r]
	rg.r++
	n = min(burst, sp.end-sp.pos)
	if sp.pos+n < sp.end {
		rg.live[rg.w] = span{sp.pos + n, sp.end}
		rg.w++
	}
	if rg.r == len(rg.live) {
		rg.live = rg.live[:rg.w]
		rg.r, rg.w = 0, 0
	}
	return sp.pos, n
}

// replay runs the trace through cfg's cache hierarchy — an L1 per SM, the
// address-interleaved LLC slices — and returns the LLC miss count. Every
// round, each SM that has a live warp issues one access from its next one.
func (tr *memTrace) replay(cfg config.SystemConfig) (llcMisses uint64) {
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
	nSlices := uint64(cfg.LLCSlices)
	rs := tr.rings(cfg.NumSMs)
	liveSMs := 0
	for s := range rs {
		if len(rs[s].live) > 0 {
			liveSMs++
		}
	}
	// A slice sees only its own lines, so only their order among themselves
	// matters: each slice's accesses are queued and replayed in runs. A run
	// works on 1/LLCSlices of the LLC's metadata while the host's caches
	// hold it; going slice to slice with every access keeps evicting it.
	const sliceRun = 1024
	queues := make([][]uint64, cfg.LLCSlices)
	backing := make([]uint64, cfg.LLCSlices*sliceRun)
	for k := range queues {
		queues[k] = backing[k*sliceRun : k*sliceRun : (k+1)*sliceRun]
	}
	drain := func(k uint64) {
		for _, local := range queues[k] {
			if !llc[k].Access(local) {
				llcMisses++
			}
		}
		queues[k] = queues[k][:0]
	}
	// The issue order never depends on a hit or a miss, so it is gathered a
	// block ahead: the trace reads (one cold line per warp) then overlap
	// each other instead of queueing behind the cache model's own misses.
	type access struct {
		addr   uint64
		sm     int32
		bypass bool
	}
	var block [1024]access
	for s := 0; liveSMs > 0; {
		n := 0
		for n < len(block) && liveSMs > 0 {
			if rg := &rs[s]; len(rg.live) > 0 {
				j, _ := rg.take(1)
				block[n] = access{addr: tr.addrs[j], sm: int32(s), bypass: tr.bypass != nil && tr.bypass[j]}
				n++
				if len(rg.live) == 0 {
					liveSMs--
				}
			}
			if s++; s == len(rs) {
				s = 0
			}
		}
		for _, a := range block[:n] {
			if !a.bypass && l1s[a.sm].Access(a.addr) {
				continue // L1 hit: no LLC traffic
			}
			line := a.addr >> lineBits
			k := line % nSlices
			queues[k] = append(queues[k], (line/nSlices)<<lineBits)
			if len(queues[k]) == sliceRun {
				drain(k)
			}
		}
	}
	for k := range queues {
		drain(uint64(k))
	}
	return llcMisses
}
