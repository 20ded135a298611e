package sched

import "math/bits"

// Horizon is the span of a Wheel in cycles, a power of two. 512 covers
// compute latencies, L1 and LLC hits, NoC round trips and the DRAM round
// trips of the simulated GPUs (256-511 cycles loaded), so only the rare
// wake-up further out than that — and the sharded runner's provisional
// far-future parks — goes to the heap. The slots cost 512 words per 64 ids:
// 4 KB for a 64-warp SM or a 64-SM timing kernel.
const Horizon = 512

// occWords is the length of the slot-occupancy mask: one bit per slot.
const occWords = Horizon / 64

// Wheel holds ids 0..n-1 — an SM's blocked warps, a timing kernel's SMs — by
// wake-up cycle: one id bitset per cycle over the next Horizon cycles, a
// mask of the occupied slots, and a Heap for wake-ups at or beyond the
// horizon. A wake-up inside the horizon costs two stores to park and a
// TrailingZeros64 walk to come due, against a sift each way in a heap.
//
// base is the cycle of the latest Due call. Every id in the slots wakes in
// (base, base+Horizon): Park puts only those there, and Due empties every
// slot up to the cycle it drains, so nothing at or before base is left.
// Slot at&(Horizon-1) is therefore unambiguous. Heap entries may come
// within the horizon as base advances; they stay there and Due pops them
// by key.
//
// Due hands the due ids back as a set, which the caller walks in ascending
// id order. Both users want exactly that: the SM's promotion order is
// invisible (its ready queues pop by scheduling rank, not arrival), and the
// timing kernel must tick its SMs in ascending id within a cycle.
//
// The zero value is unusable; call Init. Nothing allocates afterwards.
type Wheel struct {
	words int              // uint64 words per slot: ceil(n/64)
	slots []uint64         // Horizon x words id bitsets, slot = at & (Horizon-1)
	occ   [occWords]uint64 // bit s%64 of word s/64 set iff slot s holds an id
	base  int64            // cycle of the latest Due call
	far   Heap             // wake-ups outside (base, base+Horizon) when parked
}

// Init empties the wheel and sizes it for ids [0, n).
func (w *Wheel) Init(n int) {
	w.words = (n + 63) / 64
	w.slots = make([]uint64, Horizon*w.words)
	w.occ = [occWords]uint64{}
	w.base = -1
	w.far.init(n)
}

// Park records that id, which must not be parked already, wakes at cycle
// at. Within the horizon of the latest Due it goes to the slots, anywhere
// else — beyond the horizon, or at or before base — to the heap.
func (w *Wheel) Park(id int, at int64) {
	if uint64(at-w.base-1) >= Horizon-1 {
		w.far.Set(id, at)
		return
	}
	s := int(at & (Horizon - 1))
	w.slots[s*w.words+id>>6] |= 1 << (uint(id) & 63)
	w.occ[s>>6] |= 1 << (uint(s) & 63)
}

// Remove unparks id, which must be parked at cycle at.
func (w *Wheel) Remove(id int, at int64) {
	if w.far.Contains(id) {
		w.far.Remove(id)
		return
	}
	s := int(at & (Horizon - 1))
	slot := w.slots[s*w.words : (s+1)*w.words]
	slot[id>>6] &^= 1 << (uint(id) & 63)
	for _, b := range slot {
		if b != 0 {
			return
		}
	}
	w.occ[s>>6] &^= 1 << (uint(s) & 63)
}

// Due advances base to now and returns the set of ids whose wake-up cycle
// is <= now, one bit per id, with all of them removed from the wheel. The
// slice is the wheel's own slot for cycle now, with everything else that
// came due merged in; the caller must zero each word as it consumes it (no
// id can be parked there before base moves on, and the next Due returns a
// different slot or finds this one empty). now must not be earlier than the
// previous Due's. The run loops drain a wheel no later than its earliest
// wake-up, so normally nothing needs merging but the heap's due ids; a late
// call folds in every slot in (base, now) all the same.
func (w *Wheel) Due(now int64) []uint64 {
	s := int(now & (Horizon - 1))
	acc := w.slots[s*w.words : (s+1)*w.words]
	// The cycles passed over, (base, now), are at most the Horizon-1 slots
	// other than now's; fold in the occupied ones.
	if n := min(now-w.base-1, Horizon-1); n > 0 {
		w.sweep(acc, int(now-n)&(Horizon-1), int(n))
	}
	w.base = now
	w.occ[s>>6] &^= 1 << (uint(s) & 63)
	for w.far.Len() > 0 && w.far.MinKey() <= now {
		id, _ := w.far.Pop()
		acc[id>>6] |= 1 << (uint(id) & 63)
	}
	return acc
}

// Count returns how many ids the wheel holds with a wake-up cycle <= now —
// the size of the set Due(now) would return — without removing them.
func (w *Wheel) Count(now int64) int {
	n := w.far.Due(now)
	if d := min(now-w.base, Horizon); d > 0 {
		n += w.sweep(nil, int(now+1-d)&(Horizon-1), int(d))
	}
	return n
}

// sweep visits the occupied slots among the n <= Horizon slots from first
// on, circularly. With a non-nil acc it moves their ids into acc and
// empties them; with a nil acc it leaves them in place and counts them.
func (w *Wheel) sweep(acc []uint64, first, n int) int {
	if end := first + n; end > Horizon {
		return w.span(acc, first, Horizon) + w.span(acc, 0, end-Horizon)
	}
	return w.span(acc, first, first+n)
}

// span is sweep over the slots [lo, hi), 0 <= lo < hi <= Horizon, reading
// only the occupancy words that cover the range.
func (w *Wheel) span(acc []uint64, lo, hi int) (count int) {
	last := (hi - 1) >> 6
	for i := lo >> 6; i <= last; i++ {
		m := w.occ[i]
		if i == lo>>6 {
			m &= ^uint64(0) << (uint(lo) & 63)
		}
		if i == last {
			m &= ^uint64(0) >> (63 - uint(hi-1)&63)
		}
		if acc != nil {
			w.occ[i] &^= m
		}
		for ; m != 0; m &= m - 1 {
			slot := w.slots[(i<<6+bits.TrailingZeros64(m))*w.words:][:w.words]
			for j, b := range slot {
				if acc == nil {
					count += bits.OnesCount64(b)
					continue
				}
				acc[j] |= b
				slot[j] = 0
			}
		}
	}
	return count
}

// Next returns the earliest parked wake-up cycle, and false if the wheel is
// empty. The slots' candidate is the first occupied slot in circular order
// from base+1's; a heap entry can be earlier, even at or before base.
func (w *Wheel) Next() (int64, bool) {
	at, ok := int64(0), false
	start := int(w.base+1) & (Horizon - 1)
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
			at = w.base + 1 + int64((i<<6+bits.TrailingZeros64(m)-start)&(Horizon-1))
			ok = true
			break
		}
	}
	if w.far.Len() > 0 && (!ok || w.far.MinKey() < at) {
		at, ok = w.far.MinKey(), true
	}
	return at, ok
}
