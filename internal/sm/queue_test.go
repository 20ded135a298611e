package sm

import (
	"math/rand"
	"testing"

	"gpuscale/internal/sched"
)

// TestReadyQueueMatchesHeap drives the bucketed readyQueue and a sched.Heap
// through randomized launch-age sequences — launches into reused
// slots, GTO-style re-pushes under the original key, LRR-style re-keying,
// the two-level scheduler's re-key-at-issue/push-at-promote split, and
// retirements — and demands identical pop order. Keys are drawn from a
// single monotone counter, mirroring the launchSeq invariant the queue
// relies on. Iteration counts are sized so the queue's in-place compaction
// runs many times.
func TestReadyQueueMatchesHeap(t *testing.T) {
	readyQueueCrossCheck(t, 1, 200000, 1)
}

// TestReadyQueueMatchesHeapGrouped is the same cross-check over three
// per-group queues sharing one monotone key counter — the two-level
// scheduler's shape. Each group's queue then sees assignment keys that are
// monotone but gappy (the other groups consume the keys in between), which
// is exactly the invariant its compaction must survive.
func TestReadyQueueMatchesHeapGrouped(t *testing.T) {
	readyQueueCrossCheck(t, 3, 200000, 2)
}

func readyQueueCrossCheck(t *testing.T, nGroups, iters int, seed int64) {
	t.Helper()
	const maxWarps = 48
	rng := rand.New(rand.NewSource(seed))

	qs := make([]readyQueue, nGroups)
	hs := make([]*sched.Heap, nGroups)
	for g := range qs {
		qs[g].grow(maxWarps)
		hs[g] = sched.NewHeap(maxWarps)
	}
	grp := func(idx int) int { return idx % nGroups }

	type slotState uint8
	const (
		free    slotState = iota
		queued            // in both structures, awaiting pop
		running           // popped, still live (may re-push, re-key, or retire)
	)
	state := make([]slotState, maxWarps)
	key := make([]int64, maxWarps)
	freeSlots := make([]int, 0, maxWarps)
	for i := maxWarps - 1; i >= 0; i-- {
		freeSlots = append(freeSlots, i)
	}
	var runningSlots []int
	var seq int64

	pick := func(s []int) (int, []int) {
		i := rng.Intn(len(s))
		v := s[i]
		s[i] = s[len(s)-1]
		return v, s[:len(s)-1]
	}
	queuedLen := func() int {
		n := 0
		for g := range qs {
			n += qs[g].len()
		}
		return n
	}

	pops := 0
	for i := 0; i < iters; i++ {
		switch op := rng.Intn(11); {
		case op < 3 && len(freeSlots) > 0: // launch into a (possibly reused) slot
			var idx int
			idx, freeSlots = pick(freeSlots)
			key[idx] = seq
			seq++
			qs[grp(idx)].assign(idx)
			qs[grp(idx)].push(idx)
			hs[grp(idx)].Set(idx, key[idx])
			state[idx] = queued
		case op < 6 && queuedLen() > 0: // pop a random non-empty group and cross-check
			g := rng.Intn(nGroups)
			for qs[g].len() == 0 {
				g = (g + 1) % nGroups
			}
			want, wantKey := hs[g].Pop()
			got := qs[g].pop()
			if got != want {
				t.Fatalf("iter %d: group %d queue popped warp %d, heap popped warp %d (key %d)", i, g, got, want, wantKey)
			}
			if key[got] != wantKey {
				t.Fatalf("iter %d: model key %d != heap key %d for warp %d", i, key[got], wantKey, got)
			}
			state[got] = running
			runningSlots = append(runningSlots, got)
			pops++
		case op < 7 && len(runningSlots) > 0: // GTO promote: re-push, same key
			var idx int
			idx, runningSlots = pick(runningSlots)
			qs[grp(idx)].push(idx)
			hs[grp(idx)].Set(idx, key[idx])
			state[idx] = queued
		case op < 8 && len(runningSlots) > 0: // LRR issue: re-key then push
			var idx int
			idx, runningSlots = pick(runningSlots)
			key[idx] = seq
			seq++
			qs[grp(idx)].assign(idx)
			qs[grp(idx)].push(idx)
			hs[grp(idx)].Set(idx, key[idx])
			state[idx] = queued
		case op < 9 && len(runningSlots) > 0:
			// Two-level issue: the warp re-keys to the back of its group's
			// sequence at issue time but goes pending (no push) — a later
			// promote op pushes it under the already-redrawn key.
			idx := runningSlots[rng.Intn(len(runningSlots))]
			key[idx] = seq
			seq++
			qs[grp(idx)].assign(idx)
		case op < 11 && len(runningSlots) > 0: // retire: slot returns to the pool
			var idx int
			idx, runningSlots = pick(runningSlots)
			qs[grp(idx)].unrank(idx)
			state[idx] = free
			freeSlots = append(freeSlots, idx)
		}
		for g := range qs {
			if qs[g].len() != hs[g].Len() {
				t.Fatalf("iter %d: group %d queue len %d != heap len %d", i, g, qs[g].len(), hs[g].Len())
			}
		}
	}
	if pops < iters/10 {
		t.Fatalf("schedule degenerated: only %d pops in %d iterations", pops, iters)
	}
	// Drain what remains; order must still agree.
	for g := range qs {
		for hs[g].Len() > 0 {
			want, _ := hs[g].Pop()
			if got := qs[g].pop(); got != want {
				t.Fatalf("drain: group %d queue popped %d, heap popped %d", g, got, want)
			}
		}
		if qs[g].len() != 0 {
			t.Fatalf("drain: group %d queue still reports %d ready warps", g, qs[g].len())
		}
	}
}

// TestReadyQueueCompaction forces many compactions with a single live warp to
// verify stale entries are dropped and ready bits survive relocation.
func TestReadyQueueCompaction(t *testing.T) {
	var q readyQueue
	q.grow(4) // seq capacity clamps to 64
	q.assign(0)
	for i := 0; i < 10000; i++ {
		q.push(0)
		if got := q.pop(); got != 0 {
			t.Fatalf("pop returned %d, want 0", got)
		}
		q.assign(0) // re-key every round: one live entry, many stale ones
	}
	q.assign(1)
	q.push(1)
	q.push(0)
	// Warp 0's last re-key precedes warp 1's assignment, so 0 is older.
	if got := q.pop(); got != 0 {
		t.Fatalf("oldest pop returned %d, want 0", got)
	}
	if got := q.pop(); got != 1 {
		t.Fatalf("second pop returned %d, want 1", got)
	}
}
