package sm

// warpHeap is an indexed binary min-heap over warp slot indices, keyed by an
// int64. It is off the per-instruction path: the SM keeps ready warps in a
// readyQueue and blocked warps in a wakeWheel, and only the wheel's overflow
// — wake-ups at or beyond its horizon, i.e. DRAM round trips — lives here,
// keyed by wake-up cycle. O(log n) push/pop/remove/fix and O(1) membership,
// which the wheel's fix needs to tell a far warp from a near one. It is also
// the ordered reference the readyQueue and wakeWheel cross-checks compare
// against.
type warpHeap struct {
	idx  []int   // heap order -> warp index
	key  []int64 // heap order -> key
	pos  []int   // warp index -> heap order, -1 if absent
	size int
}

func (h *warpHeap) len() int { return h.size }

// grow pre-sizes the heap for warp indices [0, n): pushes within that range
// never allocate afterwards.
func (h *warpHeap) grow(n int) {
	for len(h.pos) < n {
		h.pos = append(h.pos, -1)
	}
	if cap(h.idx) < n {
		idx := make([]int, h.size, n)
		key := make([]int64, h.size, n)
		copy(idx, h.idx[:h.size])
		copy(key, h.key[:h.size])
		h.idx, h.key = idx, key
	}
}

func (h *warpHeap) ensure(warpIdx int) {
	for len(h.pos) <= warpIdx {
		h.pos = append(h.pos, -1)
	}
}

func (h *warpHeap) contains(warpIdx int) bool {
	return warpIdx < len(h.pos) && h.pos[warpIdx] >= 0
}

func (h *warpHeap) minKey() int64 { return h.key[0] }

func (h *warpHeap) push(warpIdx int, key int64) {
	h.ensure(warpIdx)
	if h.pos[warpIdx] >= 0 {
		panic("sm: warp already in heap")
	}
	if h.size == len(h.idx) {
		h.idx = append(h.idx, warpIdx)
		h.key = append(h.key, key)
	} else {
		h.idx[h.size] = warpIdx
		h.key[h.size] = key
	}
	h.pos[warpIdx] = h.size
	h.size++
	h.up(h.size - 1)
}

func (h *warpHeap) pop() (int, int64) {
	w, k := h.idx[0], h.key[0]
	h.removeAt(0)
	return w, k
}

// fix rewrites the key of a warp already in the heap and restores heap
// order — the deferred-wake repair path, cheaper than remove+push.
func (h *warpHeap) fix(warpIdx int, key int64) {
	p := h.pos[warpIdx]
	if p < 0 {
		panic("sm: warp not in heap")
	}
	h.key[p] = key
	h.down(p)
	h.up(p)
}

func (h *warpHeap) remove(warpIdx int) {
	p := h.pos[warpIdx]
	if p < 0 {
		panic("sm: warp not in heap")
	}
	h.removeAt(p)
}

func (h *warpHeap) removeAt(p int) {
	h.pos[h.idx[p]] = -1
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

func (h *warpHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.key[parent] <= h.key[i] {
			return
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *warpHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < h.size && h.key[l] < h.key[small] {
			small = l
		}
		if r < h.size && h.key[r] < h.key[small] {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *warpHeap) swap(a, b int) {
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
	h.key[a], h.key[b] = h.key[b], h.key[a]
	h.pos[h.idx[a]] = a
	h.pos[h.idx[b]] = b
}
