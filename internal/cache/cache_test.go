package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 128); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(1024, 0, 128); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(1024, 4, 100); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := New(64, 4, 128); err == nil {
		t.Error("capacity < one line accepted")
	}
}

func TestNewClampsWaysToCapacity(t *testing.T) {
	// 2 lines of capacity but 8 ways requested: ways clamp to 2.
	c := MustNew(256, 8, 128)
	if c.Ways() != 2 || c.Sets() != 1 {
		t.Errorf("ways=%d sets=%d, want 2/1", c.Ways(), c.Sets())
	}
}

func TestSetsRoundedToPowerOfTwo(t *testing.T) {
	// 48 KiB, 6-way, 128 B lines -> 384 lines -> 64 sets (power of two).
	c := MustNew(48*1024, 6, 128)
	if c.Sets() != 64 {
		t.Errorf("sets = %d, want 64", c.Sets())
	}
	if c.CapacityLines() != 384 {
		t.Errorf("capacity lines = %d, want 384", c.CapacityLines())
	}
}

func TestAccessHitMiss(t *testing.T) {
	c := MustNew(1024, 4, 128) // 8 lines, 2 sets
	if c.Access(0) {
		t.Error("first access should miss")
	}
	if !c.Access(0) {
		t.Error("second access should hit")
	}
	if !c.Access(64) { // same line as 0 (offset within 128B line)
		t.Error("same-line access should hit")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 4 lines, 4 ways, 1 set: fill, then access one more to evict LRU.
	c := MustNew(512, 4, 128)
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 128)
	}
	c.Access(0)       // make line 0 MRU
	c.Access(4 * 128) // evicts line 1 (LRU)
	if !c.Probe(0) {
		t.Error("line 0 should survive (MRU)")
	}
	if c.Probe(128) {
		t.Error("line 1 should be evicted (LRU)")
	}
	if !c.Probe(4 * 128) {
		t.Error("new line should be resident")
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	c := MustNew(512, 4, 128)
	c.Access(0)
	h, m := c.Hits(), c.Misses()
	c.Probe(0)
	c.Probe(999999)
	if c.Hits() != h || c.Misses() != m {
		t.Error("Probe changed statistics")
	}
}

func TestMissRate(t *testing.T) {
	c := MustNew(512, 4, 128)
	if c.MissRate() != 0 {
		t.Error("empty cache should report 0 miss rate")
	}
	c.Access(0)
	c.Access(0)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", got)
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(512, 4, 128)
	c.Access(0)
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if !c.Access(0) {
		t.Error("ResetStats should not evict contents")
	}
}

func TestWorkingSetFitsProperty(t *testing.T) {
	// Property: cyclically accessing a working set that fits entirely in a
	// fully-associative cache yields only cold misses.
	f := func(rawLines uint8) bool {
		lines := int(rawLines)%16 + 1
		c := MustNew(int64(32*128), 32, 128) // 32-line fully-assoc (1 set)
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < lines; i++ {
				c.Access(uint64(i) * 128)
			}
		}
		return c.Misses() == uint64(lines)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamingNeverHits(t *testing.T) {
	c := MustNew(4096, 4, 128)
	for i := uint64(0); i < 1000; i++ {
		if c.Access(i * 128) {
			t.Fatalf("streaming access %d hit", i)
		}
	}
	if c.Misses() != 1000 {
		t.Errorf("misses = %d, want 1000", c.Misses())
	}
}

// shiftLRU is the pre-intrusive-list reference implementation: tags kept in
// recency order per set (index 0 = MRU), hit and miss both copy-shifting the
// set. Retained verbatim so the linked-list Access can be cross-checked
// against the exact semantics it replaced.
type shiftLRU struct {
	ways    int
	setMask uint64
	tags    []uint64
}

func newShiftLRU(sets, ways int) *shiftLRU {
	r := &shiftLRU{ways: ways, setMask: uint64(sets - 1), tags: make([]uint64, sets*ways)}
	for i := range r.tags {
		r.tags[i] = invalidTag
	}
	return r
}

func (r *shiftLRU) access(line uint64) bool {
	base := int(line&r.setMask) * r.ways
	for i, t := range r.tags[base : base+r.ways] {
		if t == line {
			copy(r.tags[base+1:base+i+1], r.tags[base:base+i])
			r.tags[base] = line
			return true
		}
	}
	copy(r.tags[base+1:base+r.ways], r.tags[base:base+r.ways-1])
	r.tags[base] = line
	return false
}

// TestAccessMatchesShiftReference drives the intrusive-list cache and the
// old copy-shift implementation with identical randomized access streams —
// skewed so sets see hits, evictions, tail-hits and refills — and demands
// identical hit/miss verdicts and identical residency at every step.
func TestAccessMatchesShiftReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xcac4e))
	for _, geom := range []struct{ sets, ways int }{
		{1, 1}, {1, 4}, {4, 2}, {2, 8}, {8, 16}, {1, 32}, {2, 64}, // 16 ways and up look up by signature
	} {
		lineSize := 128
		c := MustNew(int64(geom.sets*geom.ways*lineSize), geom.ways, lineSize)
		if c.Sets() != geom.sets || c.Ways() != geom.ways {
			t.Fatalf("geometry %v built as %d sets × %d ways", geom, c.Sets(), c.Ways())
		}
		ref := newShiftLRU(geom.sets, geom.ways)
		// Footprint ~2× capacity keeps both hits and evictions frequent.
		footprint := uint64(2*geom.sets*geom.ways + 1)
		for step := 0; step < 20000; step++ {
			line := rng.Uint64() % footprint
			addr := line * uint64(lineSize)
			if got, want := c.Access(addr), ref.access(line); got != want {
				t.Fatalf("geometry %v step %d line %d: cache %v, reference %v",
					geom, step, line, got, want)
			}
			if step%256 == 0 {
				for probe := uint64(0); probe < footprint; probe++ {
					refHit := false
					base := int(probe&ref.setMask) * ref.ways
					for _, tag := range ref.tags[base : base+ref.ways] {
						if tag == probe {
							refHit = true
							break
						}
					}
					if c.Probe(probe*uint64(lineSize)) != refHit {
						t.Fatalf("geometry %v step %d: residency of line %d diverged", geom, step, probe)
					}
				}
			}
		}
	}
}

func TestNewRejectsOversizedAssociativity(t *testing.T) {
	// 1<<16 ways would overflow the uint16 recency links.
	if _, err := New(int64(1<<16)*128, 1<<16, 128); err == nil {
		t.Error("associativity beyond uint16 link width accepted")
	}
}

func TestLineAddr(t *testing.T) {
	c := MustNew(4096, 4, 128)
	if c.LineAddr(0) != 0 || c.LineAddr(127) != 0 || c.LineAddr(128) != 1 {
		t.Error("LineAddr mapping wrong")
	}
}

func TestMSHRAllocateAndMerge(t *testing.T) {
	m := NewMSHRFile(2)
	if !m.Allocate(10, 100) {
		t.Fatal("first allocate failed")
	}
	if !m.Allocate(10, 90) {
		t.Fatal("merge failed")
	}
	if c, ok := m.Lookup(0, 10); !ok || c != 100 {
		t.Errorf("merged completion = %d,%v, want 100,true", c, ok)
	}
	if !m.Allocate(10, 150) {
		t.Fatal("merge failed")
	}
	if c, _ := m.Lookup(0, 10); c != 150 {
		t.Errorf("later merge should extend completion, got %d", c)
	}
	if got := m.Outstanding(0); got != 1 {
		t.Errorf("outstanding = %d, want 1", got)
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHRFile(2)
	m.Allocate(1, 10)
	m.Allocate(2, 10)
	if !m.Full(0) {
		t.Error("file should be full")
	}
	if m.Allocate(3, 10) {
		t.Error("allocate beyond capacity succeeded")
	}
	if m.Allocate(1, 20) != true {
		t.Error("merge into full file should succeed")
	}
}

func TestMSHRExpire(t *testing.T) {
	m := NewMSHRFile(4)
	m.Allocate(1, 10)
	m.Allocate(2, 20)
	m.Allocate(3, 30)
	m.Expire(20)
	if got := m.Outstanding(20); got != 1 {
		t.Errorf("outstanding = %d, want 1", got)
	}
	if _, ok := m.Lookup(20, 3); !ok {
		t.Error("entry 3 should survive")
	}
}

func TestMSHRNextCompletion(t *testing.T) {
	m := NewMSHRFile(4)
	if _, ok := m.NextCompletion(0); ok {
		t.Error("empty file reported a completion")
	}
	m.Allocate(1, 30)
	m.Allocate(2, 10)
	if c, ok := m.NextCompletion(0); !ok || c != 10 {
		t.Errorf("next completion = %d,%v, want 10,true", c, ok)
	}
	if c, ok := m.NextCompletion(10); !ok || c != 30 {
		t.Errorf("next completion at 10 = %d,%v, want 30,true: completed entries do not count", c, ok)
	}
}

func TestMSHRZeroCapacityClamped(t *testing.T) {
	m := NewMSHRFile(0)
	if m.Capacity() != 1 {
		t.Errorf("capacity = %d, want 1", m.Capacity())
	}
}

func TestSectoredValidation(t *testing.T) {
	if _, err := NewSectored(1024, 2, 128, 33); err == nil {
		t.Error("non-power-of-two sector accepted")
	}
	if _, err := NewSectored(1024, 2, 128, 256); err == nil {
		t.Error("sector larger than line accepted")
	}
	if _, err := NewSectored(1<<20, 2, 1<<13, 32); err == nil {
		t.Error(">64 sectors per line accepted")
	}
	c, err := NewSectored(1024, 2, 128, 128)
	if err != nil {
		t.Fatalf("sector == line rejected: %v", err)
	}
	if c.Sectored() {
		t.Error("one-sector cache reports sectored mode")
	}
}

func TestSectoredTagHitSectorMiss(t *testing.T) {
	// 128-byte lines, 32-byte sectors: the four quarters of a line miss
	// independently, then all hit.
	c := MustNewSectored(1024, 2, 128, 32)
	if !c.Sectored() {
		t.Fatal("not in sectored mode")
	}
	for i := uint64(0); i < 4; i++ {
		if c.Access(i * 32) {
			t.Errorf("sector %d hit before any fill", i)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Access(i * 32) {
			t.Errorf("sector %d missed after its fill", i)
		}
	}
	if c.Hits() != 4 || c.Misses() != 4 {
		t.Errorf("hits/misses = %d/%d, want 4/4", c.Hits(), c.Misses())
	}
}

func TestSectoredVictimResetsMask(t *testing.T) {
	// Direct-mapped single-set cache: evicting a line must invalidate its
	// sectors, so a re-fetch misses per sector again.
	c := MustNewSectored(128, 1, 128, 32)
	c.Access(0)       // fill line 0 sector 0
	c.Access(32)      // sector 1
	c.Access(1 << 20) // evict line 0, install the new line's sector 0
	if !c.Access(1 << 20) {
		t.Error("the replacement's freshly filled sector missed")
	}
	if c.Access(1<<20 + 32) {
		t.Error("unfilled sector of the fresh line hit")
	}
	if c.Access(32) {
		t.Error("sector survived its line's eviction")
	}
}

func TestSectoredProbe(t *testing.T) {
	c := MustNewSectored(1024, 2, 128, 32)
	c.Access(64) // fills only sector 2 of line 0
	if !c.Probe(64) {
		t.Error("filled sector not resident")
	}
	if c.Probe(0) {
		t.Error("unfilled sector of a resident line probes true")
	}
}

func TestSectoredMatchesLineOnSequentialFill(t *testing.T) {
	// Line-stride accesses touch one sector per line, so sectored and
	// line-grain caches agree on every outcome.
	sec := MustNewSectored(4096, 4, 128, 32)
	lin := MustNew(4096, 4, 128)
	for round := 0; round < 3; round++ {
		for a := uint64(0); a < 64*128; a += 128 {
			if got, want := sec.Access(a), lin.Access(a); got != want {
				t.Fatalf("round %d addr %d: sectored %v, line %v", round, a, got, want)
			}
		}
	}
	if sec.Hits() != lin.Hits() || sec.Misses() != lin.Misses() {
		t.Errorf("counters diverged: sectored %d/%d, line %d/%d",
			sec.Hits(), sec.Misses(), lin.Hits(), lin.Misses())
	}
}
