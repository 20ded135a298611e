package cache

import (
	"math/rand"
	"testing"
)

// TestMSHRCapacityOneBoundary pins the structural-stall boundary on the
// smallest possible file: with one entry outstanding the file is full for
// every other line, merges into the occupied line still succeed, and the
// slot frees exactly when the completion cycle passes — not one cycle
// before.
func TestMSHRCapacityOneBoundary(t *testing.T) {
	m := NewMSHRFile(1)
	if !m.Allocate(7, 100) {
		t.Fatal("allocate into empty file failed")
	}
	if !m.Full(99) {
		t.Error("file with one live entry should be full at capacity 1")
	}
	if m.Allocate(8, 120) {
		t.Error("second line allocated into a full capacity-1 file")
	}
	if !m.Allocate(7, 110) {
		t.Error("merge into the resident line must succeed even when full")
	}
	// The entry now completes at 110 (merge keeps the later time). At cycle
	// 109 it is still live; from 110 on it is dead to Lookup and Full.
	if _, ok := m.Lookup(109, 7); !ok {
		t.Error("entry expired one cycle early")
	}
	if m.Full(110) {
		t.Error("file still full at the completion cycle")
	}
	if _, ok := m.Lookup(110, 7); ok {
		t.Error("completed entry still visible to Lookup")
	}
	if !m.Allocate(8, 200) {
		t.Error("allocate after expiry failed")
	}
}

// TestMSHRSimultaneousCompletions pins several entries completing on the
// same cycle: all of them stop counting at that cycle, whatever order they
// are stored in and whether or not a sweep has run, and the next completion
// moves to the survivor.
func TestMSHRSimultaneousCompletions(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(1, 50)
	m.Allocate(2, 50)
	m.Allocate(3, 50)
	m.Allocate(4, 60)
	if nc, ok := m.NextCompletion(0); !ok || nc != 50 {
		t.Fatalf("NextCompletion(0) = %d,%v, want 50,true", nc, ok)
	}
	m.Expire(49)
	if got := m.Outstanding(49); got != 4 {
		t.Errorf("Outstanding(49) = %d, want 4", got)
	}
	if !m.Full(49) {
		t.Error("four live entries at capacity 4 must be full")
	}
	if got := m.Outstanding(50); got != 1 {
		t.Errorf("Outstanding(50) = %d before any sweep, want 1", got)
	}
	if nc, ok := m.NextCompletion(50); !ok || nc != 60 {
		t.Errorf("NextCompletion(50) = %d,%v, want 60,true", nc, ok)
	}
	if m.Full(50) {
		t.Error("three entries completed at 50; the file has room")
	}
	if _, ok := m.Lookup(55, 4); !ok {
		t.Error("surviving entry lost")
	}
	if _, ok := m.NextCompletion(60); ok {
		t.Error("NextCompletion(60) reported an entry in an empty file")
	}
}

// TestMSHRLazyCompaction pins the reclamation schedule, the one thing the
// timing-visible answers do not show: Expire leaves dead entries in place
// until the occupied slots reach twice the survivors of the last sweep
// (never below minCompactAt), does not sweep a file in which nothing can
// have died, and Full and Allocate sweep on demand so dead entries never
// refuse a miss.
func TestMSHRLazyCompaction(t *testing.T) {
	m := NewMSHRFile(64)
	for l := uint64(0); l < minCompactAt-1; l++ {
		m.Allocate(l, 10)
	}
	m.Expire(20)
	if m.n != minCompactAt-1 {
		t.Fatalf("Expire swept %d slots below the threshold, want them left", minCompactAt-1-m.n)
	}
	if got := m.Outstanding(20); got != 0 {
		t.Errorf("Outstanding(20) = %d, want 0: unswept dead entries must not count", got)
	}
	// 12 live entries push the occupancy past the threshold; the sweep
	// keeps them and re-arms at twice the survivors.
	for l := uint64(100); l < 112; l++ {
		m.Allocate(l, 500)
	}
	m.Expire(21)
	if m.n != 12 || m.compactAt != 24 {
		t.Fatalf("after sweep: %d slots, next sweep at %d; want 12 and 24", m.n, m.compactAt)
	}
	for l := uint64(200); l < 212; l++ {
		m.Allocate(l, 30)
	}
	// At the threshold, but nothing completes before cycle 30.
	m.Expire(29)
	if m.n != 24 {
		t.Errorf("Expire(29) swept a file whose earliest completion is 30")
	}
	m.Expire(30)
	if m.n != 12 {
		t.Errorf("Expire(30) left %d slots, want the 12 live ones", m.n)
	}

	// Capacity 2, both slots dead: Full and Allocate each reclaim.
	f := NewMSHRFile(2)
	f.Allocate(1, 10)
	f.Allocate(2, 40)
	f.Allocate(1, 30) // merge: line 1 now completes at 30
	if nc, _ := f.NextCompletion(0); nc != 30 {
		t.Errorf("NextCompletion after merge = %d, want 30", nc)
	}
	if !f.Full(10) {
		t.Error("file should still be full at cycle 10 after the merge")
	}
	if f.Full(35) {
		t.Error("file should have a free slot at cycle 35")
	}
	f.Lookup(45, 9) // shows the file cycle 45 without sweeping
	if !f.Allocate(3, 90) || !f.Allocate(4, 95) {
		t.Error("Allocate refused a miss though every resident entry had completed")
	}
	if f.Allocate(5, 99) {
		t.Error("third live line allocated into a capacity-2 file")
	}
}

// TestMSHRAllocateOverwritesCompletedEntry pins the resurrection path: a new
// miss on a line whose dead entry is still in the file takes that slot over
// with the new completion — equivalent to reclaim-then-allocate, with no
// sweep needed first and no second entry for the line.
func TestMSHRAllocateOverwritesCompletedEntry(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(7, 10)
	m.Allocate(8, 12)
	m.Expire(20) // below the sweep threshold: both stay, dead
	if !m.Allocate(7, 50) {
		t.Fatal("overwrite of completed entry failed")
	}
	if m.n != 2 {
		t.Errorf("file holds %d slots, want 2: the dead entry's slot is reused", m.n)
	}
	if c, ok := m.Lookup(20, 7); !ok || c != 50 {
		t.Errorf("Lookup(20, 7) = %d,%v, want 50,true", c, ok)
	}
	if got := m.Outstanding(20); got != 1 {
		t.Errorf("Outstanding(20) = %d, want 1 (line 8 completed at 12)", got)
	}
	if nc, ok := m.NextCompletion(20); !ok || nc != 50 {
		t.Errorf("NextCompletion(20) = %d,%v, want 50,true", nc, ok)
	}
}

// mshrModel is the specification the file is held to: a map of the misses
// outstanding at the latest cycle it was shown (by Expire, Lookup or Full),
// with everything completed dropped eagerly at each such call. It has no
// notion of slots, sweeps or thresholds, so agreement with it shows that no
// answer of MSHRFile depends on when compaction runs.
type mshrModel struct {
	capacity int
	now      int64
	live     map[uint64]int64
}

func (m *mshrModel) at(now int64) {
	m.now = now
	for l, c := range m.live {
		if c <= now {
			delete(m.live, l)
		}
	}
}

func (m *mshrModel) lookup(now int64, line uint64) (int64, bool) {
	m.at(now)
	c, ok := m.live[line]
	return c, ok
}

func (m *mshrModel) full(now int64) bool {
	m.at(now)
	return len(m.live) >= m.capacity
}

func (m *mshrModel) allocate(line uint64, completion int64) bool {
	if c, ok := m.live[line]; ok {
		if completion > c {
			m.live[line] = completion
		}
		return true
	}
	if len(m.live) >= m.capacity {
		return false
	}
	m.live[line] = completion
	return true
}

func (m *mshrModel) nextCompletion(now int64) (int64, bool) {
	best, ok := int64(0), false
	for _, c := range m.live {
		if c > now && (!ok || c < best) {
			best, ok = c, true
		}
	}
	return best, ok
}

func (m *mshrModel) outstanding(now int64) int {
	n := 0
	for _, c := range m.live {
		if c > now {
			n++
		}
	}
	return n
}

// TestMSHRMatchesReferenceModel drives the file and the specification
// through long randomized schedules of allocates (fresh, merge, overwrite of
// a dead entry, refused; bare and straight after the Lookup that missed, as
// the memory port issues them), lookups, per-tick Expires, fullness probes
// and minimum queries with time advancing irregularly, cross-checking every
// answer and the live count after every step. Capacity 1 and 4 sit below
// the number of lines in flight, so the file is full most of the time and
// the Full -> NextCompletion stall path and on-demand sweeps run constantly;
// 24 mixes both regimes; 384 is the baseline L1's file, which never fills
// and reclaims through Expire's threshold alone.
func TestMSHRMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 4, 24, 384} {
		rng := rand.New(rand.NewSource(int64(42 + capacity)))
		m := NewMSHRFile(capacity)
		ref := &mshrModel{capacity: capacity, live: map[uint64]int64{}}
		now := int64(0)
		for iter := 0; iter < 100000; iter++ {
			line := uint64(rng.Intn(40)) // small line space forces merges and overwrites
			allocate := func() {
				comp := now + 1 + int64(rng.Intn(120))
				if got, want := m.Allocate(line, comp), ref.allocate(line, comp); got != want {
					t.Fatalf("cap %d iter %d: Allocate(%d, %d) = %v, want %v", capacity, iter, line, comp, got, want)
				}
			}
			switch rng.Intn(10) {
			case 0, 1, 2: // allocate
				allocate()
			case 3, 4, 5: // lookup, half the time followed by the port's allocate-on-miss
				gc, gok := m.Lookup(now, line)
				wc, wok := ref.lookup(now, line)
				if gc != wc || gok != wok {
					t.Fatalf("cap %d iter %d: Lookup(%d, %d) = %d,%v, want %d,%v", capacity, iter, now, line, gc, gok, wc, wok)
				}
				if !gok && rng.Intn(2) == 0 {
					if rng.Intn(4) == 0 {
						m.Expire(now) // may sweep between the probe and the allocate
					}
					allocate()
				}
			case 6: // the per-tick call
				m.Expire(now)
				ref.at(now)
			case 7: // fullness probe
				if got, want := m.Full(now), ref.full(now); got != want {
					t.Fatalf("cap %d iter %d: Full(%d) = %v, want %v", capacity, iter, now, got, want)
				}
			case 8: // minimum query
				gc, gok := m.NextCompletion(now)
				wc, wok := ref.nextCompletion(now)
				if gc != wc || gok != wok {
					t.Fatalf("cap %d iter %d: NextCompletion(%d) = %d,%v, want %d,%v", capacity, iter, now, gc, gok, wc, wok)
				}
			case 9: // advance time irregularly so sweeps vary in size
				now += int64(rng.Intn(40))
			}
			if got, want := m.Outstanding(now), ref.outstanding(now); got != want {
				t.Fatalf("cap %d iter %d: Outstanding(%d) = %d, want %d", capacity, iter, now, got, want)
			}
		}
	}
}

// TestMSHRAllocationFree pins the no-allocation property of the flat file:
// steady-state traffic (allocate, merge, lookup, expire) must not touch the
// heap.
func TestMSHRAllocationFree(t *testing.T) {
	m := NewMSHRFile(16)
	if n := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 16; i++ {
			m.Allocate(i, int64(100+i))
		}
		m.Allocate(3, 200) // merge
		m.Lookup(50, 5)
		m.Full(50)
		m.Expire(300)
	}); n != 0 {
		t.Fatalf("MSHR operations allocated %.1f times per run, want 0", n)
	}
}
