// Package sched provides the wake-up structures of the event-driven timing
// model: Wheel, which holds ids by wake-up cycle, and the indexed min-heap
// behind it, which takes the wake-ups beyond the wheel's horizon.
//
// Two layers park their wake-ups in a Wheel. An SM parks each blocked warp
// until its dependency resolves (internal/sm), and the timing kernel parks
// each SM until its next actionable cycle (internal/timing). The dense
// reference loop ticks every SM every simulated cycle, paying O(NumSMs)
// bookkeeping even when all but one SM sits in a hundred-cycle memory
// stall; the event-driven loop ticks only the SMs whose wake-up is due.
//
// Bit-identical results depend on one property of both structures: the ids
// due at one cycle come out in ascending id order. The shared memory
// hierarchy (NoC, LLC, DRAM queues) is stateful, so the order in which SMs
// access it within one cycle is architecturally visible; the dense loop
// established ascending-SM-ID order. Wheel.Due returns a bitset, walked low
// to high, and the heap breaks key ties toward the smaller index.
package sched

// Heap is an indexed binary min-heap over unit indices 0..n-1 keyed by an
// int64 wake-up cycle, with ties broken toward the smaller unit index. Each
// unit appears at most once. The zero value is unusable; use NewHeap (a
// Wheel sizes its own). All operations after that are allocation-free.
type Heap struct {
	idx  []int   // heap order -> unit index
	key  []int64 // heap order -> wake-up cycle
	pos  []int   // unit index -> heap order, -1 if absent
	size int
}

// NewHeap returns a heap for unit indices in [0, units).
func NewHeap(units int) *Heap {
	h := &Heap{}
	h.init(units)
	return h
}

// init empties the heap and sizes it for unit indices in [0, units).
func (h *Heap) init(units int) {
	h.idx = make([]int, units)
	h.key = make([]int64, units)
	h.pos = make([]int, units)
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.size = 0
}

// Len returns the number of scheduled units.
func (h *Heap) Len() int { return h.size }

// Contains reports whether the unit is currently scheduled.
func (h *Heap) Contains(unit int) bool { return h.pos[unit] >= 0 }

// MinKey returns the earliest wake-up cycle. It must not be called on an
// empty heap.
func (h *Heap) MinKey() int64 { return h.key[0] }

// Due returns how many units are scheduled at or before cycle c. It visits
// only those entries and their children, so it costs O(result).
func (h *Heap) Due(c int64) int { return h.due(0, c) }

func (h *Heap) due(i int, c int64) int {
	if i >= h.size || h.key[i] > c {
		return 0
	}
	return 1 + h.due(2*i+1, c) + h.due(2*i+2, c)
}

// Pop removes and returns the unit with the earliest wake-up cycle; among
// equal cycles, the smallest unit index.
func (h *Heap) Pop() (unit int, key int64) {
	unit, key = h.idx[0], h.key[0]
	h.pos[unit] = -1
	h.size--
	if h.size > 0 {
		h.idx[0] = h.idx[h.size]
		h.key[0] = h.key[h.size]
		h.pos[h.idx[0]] = 0
		h.down(0)
	}
	return unit, key
}

// Set schedules the unit at the given wake-up cycle, inserting it or moving
// its existing entry.
func (h *Heap) Set(unit int, key int64) {
	if p := h.pos[unit]; p >= 0 {
		old := h.key[p]
		h.key[p] = key
		if key < old {
			h.up(p)
		} else if key > old {
			h.down(p)
		}
		return
	}
	h.idx[h.size] = unit
	h.key[h.size] = key
	h.pos[unit] = h.size
	h.size++
	h.up(h.size - 1)
}

// Remove deschedules the unit if it is scheduled.
func (h *Heap) Remove(unit int) {
	p := h.pos[unit]
	if p < 0 {
		return
	}
	h.pos[unit] = -1
	h.size--
	if p == h.size {
		return
	}
	h.idx[p] = h.idx[h.size]
	h.key[p] = h.key[h.size]
	h.pos[h.idx[p]] = p
	h.down(p)
	h.up(p)
}

// less orders heap entries by (cycle, unit index).
func (h *Heap) less(a, b int) bool {
	if h.key[a] != h.key[b] {
		return h.key[a] < h.key[b]
	}
	return h.idx[a] < h.idx[b]
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *Heap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < h.size && h.less(l, small) {
			small = l
		}
		if r < h.size && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *Heap) swap(a, b int) {
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
	h.key[a], h.key[b] = h.key[b], h.key[a]
	h.pos[h.idx[a]] = a
	h.pos[h.idx[b]] = b
}
