package sm

import "math/bits"

// wakeHorizon is the span of the pending-warp wheel in cycles. A power of
// two no larger than 64, so the occupancy mask is one word; 64 covers
// compute latencies, L1 and LLC hits and lightly queued NoC round trips,
// leaving only DRAM-bound wake-ups to the heap.
const wakeHorizon = 64

// wakeWheel holds an SM's blocked warps by wake-up cycle. It is the per-SM
// twin of the timing kernel's due-wheel: one warp bitset per cycle over the
// next wakeHorizon cycles, a one-word mask of the occupied slots, and an
// indexed min-heap for wake-ups at or beyond the horizon. A near wake-up —
// all but the DRAM round trips — costs two stores to park and a
// TrailingZeros64 walk to promote, against a sift each way in a heap.
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
	words int      // uint64 words per slot: ceil(maxWarps/64)
	slots []uint64 // wakeHorizon x words warp bitsets, slot = readyAt & (wakeHorizon-1)
	occ   uint64   // bit s set iff slot s holds a warp
	base  int64    // cycle of the latest due call, i.e. of the SM's latest Tick
	far   warpHeap // wake-ups at distance >= wakeHorizon from the base they were parked at
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
	w.occ |= 1 << uint(s)
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
			w.occ &^= 1 << uint(s)
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
	span := now - w.base
	w.base = now
	if span > 1 && w.occ != 0 {
		// Rotate so bit 0 is the slot of cycle old base+1, then keep the
		// slots of the span-1 cycles the clock passed over.
		first := int(now-span+1) & (wakeHorizon - 1)
		m := bits.RotateLeft64(w.occ, -first)
		if span <= wakeHorizon {
			m &= 1<<uint(span-1) - 1
		} else {
			m &^= 1 << uint((s-first)&(wakeHorizon-1)) // acc itself
		}
		for ; m != 0; m &= m - 1 {
			o := (first + bits.TrailingZeros64(m)) & (wakeHorizon - 1)
			for i := range acc {
				acc[i] |= w.slots[o*w.words+i]
				w.slots[o*w.words+i] = 0
			}
			w.occ &^= 1 << uint(o)
		}
	}
	w.occ &^= 1 << uint(s)
	for w.far.len() > 0 && w.far.minKey() <= now {
		idx, _ := w.far.pop()
		acc[idx>>6] |= 1 << (uint(idx) & 63)
	}
	return acc
}

// next returns the earliest parked wake-up cycle, and false if no warp is
// parked.
func (w *wakeWheel) next() (int64, bool) {
	at, ok := int64(0), false
	if w.occ != 0 {
		first := int(w.base+1) & (wakeHorizon - 1)
		at = w.base + 1 + int64(bits.TrailingZeros64(bits.RotateLeft64(w.occ, -first)))
		ok = true
	}
	if w.far.len() > 0 && (!ok || w.far.minKey() < at) {
		at, ok = w.far.minKey(), true
	}
	return at, ok
}
