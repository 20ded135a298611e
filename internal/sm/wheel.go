package sm

import "math/bits"

// wakeHorizon is the span of the pending-warp wheel in cycles, a power of
// two. 512 covers compute latencies, L1 and LLC hits, NoC round trips and
// the DRAM round trips of the simulated GPUs (256-511 cycles loaded), so
// only the rare wake-up further out than that — and the sharded runner's
// provisional far-future parks — goes to the heap. The slots cost 512
// words per 64 warps: 4 KB for a 64-warp SM.
const wakeHorizon = 512

// occWords is the length of the slot-occupancy mask: one bit per slot.
const occWords = wakeHorizon / 64

// wakeWheel holds an SM's blocked warps by wake-up cycle. It is the per-SM
// twin of the timing kernel's due-wheel: one warp bitset per cycle over the
// next wakeHorizon cycles, a mask of the occupied slots, and an indexed
// min-heap for wake-ups at or beyond the horizon. A wake-up inside the
// horizon costs two stores to park and a TrailingZeros64 walk to promote,
// against a sift each way in a heap.
//
// base is the cycle of the SM's latest Tick. Every warp in the wheel wakes
// in (base, base+wakeHorizon): it was parked at some tick p <= base within
// wakeHorizon of p, and due drains every slot up to the ticked cycle, so
// nothing at or before base is left. Slot readyAt&(wakeHorizon-1) is
// therefore unambiguous. Warps in the heap may come within the horizon as
// base advances; they stay there and due pops them by key.
//
// The wheel hands due warps back as a set, which the SM walks in warp-index
// order, not in the (readyAt, heap position) order a single heap would pop
// them. The SM cannot tell:
// a promoted warp enters a readyQueue that pops by scheduling rank, not
// arrival, or sets the currentReady flag, and blockedMem-- commutes — which
// is what makes the replacement exact (TestWakeWheelMatchesHeap checks the
// promoted sets cycle by cycle, TestPendingWakeMatchesReferenceSM the issue
// order under every policy against heap-ordered promotion, the golden grid
// the Stats).
type wakeWheel struct {
	words int              // uint64 words per slot: ceil(maxWarps/64)
	slots []uint64         // wakeHorizon x words warp bitsets, slot = readyAt & (wakeHorizon-1)
	occ   [occWords]uint64 // bit s%64 of word s/64 set iff slot s holds a warp
	base  int64            // cycle of the latest due call, i.e. of the SM's latest Tick
	far   warpHeap         // wake-ups at distance >= wakeHorizon from the base they were parked at
}

// grow sizes the wheel for warp indices [0, n); park, fix and due never
// allocate afterwards.
func (w *wakeWheel) grow(n int) {
	w.words = (n + 63) / 64
	w.slots = make([]uint64, wakeHorizon*w.words)
	w.base = -1
	w.far.grow(n)
}

// park records that warp idx wakes at readyAt > base.
func (w *wakeWheel) park(idx int, readyAt int64) {
	if readyAt-w.base >= wakeHorizon {
		w.far.push(idx, readyAt)
		return
	}
	s := int(readyAt & (wakeHorizon - 1))
	w.slots[s*w.words+idx>>6] |= 1 << (uint(idx) & 63)
	w.occ[s>>6] |= 1 << (uint(s) & 63)
}

// fix moves a parked warp from wake-up cycle old to readyAt > base — the
// sharded loops' deferred-wake repair, typically far -> near.
func (w *wakeWheel) fix(idx int, old, readyAt int64) {
	if w.far.contains(idx) {
		if readyAt-w.base >= wakeHorizon {
			w.far.fix(idx, readyAt)
			return
		}
		w.far.remove(idx)
	} else {
		s := int(old & (wakeHorizon - 1))
		slot := w.slots[s*w.words : (s+1)*w.words]
		slot[idx>>6] &^= 1 << (uint(idx) & 63)
		var any uint64
		for _, b := range slot {
			any |= b
		}
		if any == 0 {
			w.occ[s>>6] &^= 1 << (uint(s) & 63)
		}
	}
	w.park(idx, readyAt)
}

// due advances base to now and returns the set of warps whose wake-up cycle
// is <= now, one bit per warp index, with all of them removed from the wheel.
// The slice is the wheel's own slot for cycle now, with everything else that
// came due merged in; the caller must zero each word as it consumes it (no
// warp can be parked there before base moves on, and the next due returns a
// different slot or finds this one empty). The run loops tick an SM no later
// than its earliest wake-up (NextEvent feeds the timing kernel, the dense
// loops tick every cycle), so normally nothing needs merging but the heap's
// due warps; a tick that arrives late folds in every slot in (base, now) all
// the same, so Tick stays correct for any non-decreasing clock.
func (w *wakeWheel) due(now int64) []uint64 {
	s := int(now) & (wakeHorizon - 1)
	acc := w.slots[s*w.words : (s+1)*w.words]
	// The cycles passed over, (base, now), are at most the wakeHorizon-1
	// slots other than now's; fold in the occupied ones.
	if n := min(now-w.base-1, wakeHorizon-1); n > 0 {
		first := int(now-n) & (wakeHorizon - 1)
		if end := first + int(n); end <= wakeHorizon {
			w.merge(acc, first, end)
		} else {
			w.merge(acc, first, wakeHorizon)
			w.merge(acc, 0, end-wakeHorizon)
		}
	}
	w.base = now
	w.occ[s>>6] &^= 1 << (uint(s) & 63)
	for w.far.len() > 0 && w.far.minKey() <= now {
		idx, _ := w.far.pop()
		acc[idx>>6] |= 1 << (uint(idx) & 63)
	}
	return acc
}

// merge moves the warps of slots [lo, hi), 0 <= lo < hi <= wakeHorizon,
// into acc, reading only the occupancy words that cover the range.
func (w *wakeWheel) merge(acc []uint64, lo, hi int) {
	last := (hi - 1) >> 6
	for i := lo >> 6; i <= last; i++ {
		m := w.occ[i]
		if i == lo>>6 {
			m &= ^uint64(0) << (uint(lo) & 63)
		}
		if i == last {
			m &= ^uint64(0) >> (63 - uint(hi-1)&63)
		}
		w.occ[i] &^= m
		for ; m != 0; m &= m - 1 {
			o := (i<<6 + bits.TrailingZeros64(m)) * w.words
			for j := range acc {
				acc[j] |= w.slots[o+j]
				w.slots[o+j] = 0
			}
		}
	}
}

// next returns the earliest parked wake-up cycle, and false if no warp is
// parked. The wheel's candidate is the first occupied slot in circular order
// from base+1's.
func (w *wakeWheel) next() (int64, bool) {
	at, ok := int64(0), false
	start := int(w.base+1) & (wakeHorizon - 1)
	below := uint64(1)<<(uint(start)&63) - 1 // start's word: the slots before it
	for k := 0; k <= occWords; k++ {
		i := (start>>6 + k) & (occWords - 1)
		m := w.occ[i]
		switch k {
		case 0:
			m &^= below
		case occWords: // wrapped around to start's word
			m &= below
		}
		if m != 0 {
			at = w.base + 1 + int64((i<<6+bits.TrailingZeros64(m)-start)&(wakeHorizon-1))
			ok = true
			break
		}
	}
	if w.far.len() > 0 && (!ok || w.far.minKey() < at) {
		at, ok = w.far.minKey(), true
	}
	return at, ok
}
