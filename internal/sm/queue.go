package sm

import "math/bits"

// readyQueue keeps an SM's ready warps in a sequence-ordered bitmap. It
// exploits an invariant of both scheduling policies: the ready key of a warp
// (launch age under GTO, last-issue recency under LRR) is drawn from the SM's
// single monotone launchSeq counter at the moment the key is (re)assigned, so
// the order in which keys are assigned IS the order of the key values, and no
// two live keys are ever equal. That turns "pop the smallest key" into "find
// the first set bit in assignment order" — one TrailingZeros64 over a couple
// of words instead of a log-n heap sift — while reproducing a heap's pop
// order bit-for-bit (TestReadyQueueMatchesHeap cross-checks this on
// randomized schedules).
//
// Layout: seq records warp slot indices in key-assignment order; rank maps a
// warp slot back to its position in seq (-1 when the slot has no current
// key); mask holds one ready bit per seq position. A warp may be re-keyed
// (LRR re-issue) or its slot reused (retire + launch), leaving stale seq
// entries behind; they are recognized by rank[seq[i]] != i and dropped by the
// in-place compaction that runs when seq fills. Capacity is 2× the live-warp
// limit, so compaction always reclaims at least half the entries and the
// structure never allocates after grow.
type readyQueue struct {
	seq   []int32  // seq position -> warp slot index (assignment order)
	rank  []int32  // warp slot index -> seq position, -1 if unkeyed
	mask  []uint64 // seq position -> ready bit
	tail  int      // next free seq position
	count int      // number of set bits in mask
}

// grow pre-sizes the queue for warp slot indices [0, n): assign/push/pop
// never allocate afterwards.
func (q *readyQueue) grow(n int) {
	capSeq := 2 * n
	if capSeq < 64 {
		capSeq = 64
	}
	if len(q.seq) < capSeq {
		seq := make([]int32, capSeq)
		copy(seq, q.seq[:q.tail])
		q.seq = seq
		mask := make([]uint64, (capSeq+63)/64)
		copy(mask, q.mask)
		q.mask = mask
	}
	for len(q.rank) < n {
		q.rank = append(q.rank, -1)
	}
}

func (q *readyQueue) ensure(warpIdx int) {
	for len(q.rank) <= warpIdx {
		q.rank = append(q.rank, -1)
	}
}

func (q *readyQueue) len() int { return q.count }

// assign records that warp warpIdx was just given a key larger than every
// key assigned before it (a fresh launchSeq draw), appending it to the
// sequence. Any previous position of the slot becomes stale. The warp is not
// marked ready; call push for that.
func (q *readyQueue) assign(warpIdx int) {
	q.ensure(warpIdx)
	if q.tail == len(q.seq) {
		q.compact()
	}
	q.seq[q.tail] = int32(warpIdx)
	q.rank[warpIdx] = int32(q.tail)
	q.tail++
}

// compact drops stale seq entries in place, preserving assignment order of
// the live ones and carrying their ready bits along. At most one entry per
// live warp is current, so with capacity 2×maxWarps this always frees half
// the slots.
func (q *readyQueue) compact() {
	out := 0
	for i := 0; i < q.tail; i++ {
		w := q.seq[i]
		if int(q.rank[w]) != i {
			continue // stale: slot was re-keyed or retired since
		}
		set := q.mask[i>>6]&(1<<(uint(i)&63)) != 0
		q.mask[i>>6] &^= 1 << (uint(i) & 63)
		q.seq[out] = w
		q.rank[w] = int32(out)
		if set {
			q.mask[out>>6] |= 1 << (uint(out) & 63)
		} else {
			q.mask[out>>6] &^= 1 << (uint(out) & 63)
		}
		out++
	}
	// Clear any bits left between the new tail and the old one.
	for i := out; i < q.tail; i++ {
		q.mask[i>>6] &^= 1 << (uint(i) & 63)
	}
	q.tail = out
}

// push marks the (already assigned) warp ready. Pushing a warp twice without
// an intervening pop is a scheduler bug, as it was for the heap.
func (q *readyQueue) push(warpIdx int) {
	r := q.rank[warpIdx]
	if r < 0 {
		panic("sm: ready push of unassigned warp")
	}
	q.mask[r>>6] |= 1 << (uint(r) & 63)
	q.count++
}

// pop removes and returns the ready warp with the smallest key — the first
// set bit in assignment order. The queue must be non-empty.
func (q *readyQueue) pop() int {
	for wi, w := range q.mask {
		if w == 0 {
			continue
		}
		b := bits.TrailingZeros64(w)
		q.mask[wi] = w &^ (1 << uint(b))
		q.count--
		return int(q.seq[wi<<6|b])
	}
	panic("sm: pop of empty ready queue")
}

// unrank forgets the warp's key (and ready bit, if set) when its slot is
// retired, so a later occupant of the slot starts unkeyed.
func (q *readyQueue) unrank(warpIdx int) {
	if warpIdx >= len(q.rank) {
		return
	}
	r := q.rank[warpIdx]
	if r < 0 {
		return
	}
	if q.mask[r>>6]&(1<<(uint(r)&63)) != 0 {
		q.mask[r>>6] &^= 1 << (uint(r) & 63)
		q.count--
	}
	q.rank[warpIdx] = -1
}
