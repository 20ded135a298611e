package cache

import (
	"math"

	"gpuscale/internal/obs"
)

// MSHRFile models a miss-status holding register file: a bounded table of
// outstanding misses keyed by line address. Concurrent misses to the same
// line merge into one entry (and one memory request); the table rejects new
// lines once Capacity entries are outstanding, which the simulator turns
// into a structural stall.
//
// Each entry remembers the completion time of the underlying memory request
// so that merged requesters wake at the same cycle the data returns.
//
// The file is a pair of flat parallel arrays sized to capacity rather than
// a map: MSHR capacities are small (tens to hundreds of entries), so a linear
// scan beats hashing on every Lookup and the structure never allocates after
// NewMSHRFile. Entries are unordered and completed ones are reclaimed
// lazily: nothing on the per-instruction path needs them sorted, so there is
// no completion heap to sift. An entry whose completion cycle has passed is
// dead — Lookup skips it, Allocate of the same line overwrites it (the later
// completion wins, and a new miss always completes later than a dead one),
// Outstanding and NextCompletion do not count it — and it costs only its
// place in the scan until compact sweeps it out.
//
// The run loops call Expire(now) once per SM per visited cycle, immediately
// before the SM's Tick and hence before any access of that cycle. Expire
// records the cycle and compacts only when the occupied slots reach twice
// the survivors of the last compaction (or capacity), so a sweep over n
// slots is paid for by the n/2 allocations since the last one: amortised
// O(1) per miss, one comparison per tick. Full and Allocate compact on
// demand when the arrays look full, so a file clogged with dead entries
// never refuses a miss. Every timing-visible answer (Lookup, Full, Allocate,
// NextCompletion) is a function of the live entries alone — exact-match
// lookup, count, minimum, all order-independent — so Stats are bit-identical
// to eager reclamation under any compaction schedule
// (TestMSHRMatchesReferenceModel).
type MSHRFile struct {
	capacity  int
	lines     []uint64 // line addresses in slots [0, n), live and dead
	comps     []int64  // completion cycle of each slot; dead once <= now
	n         int      // occupied slots
	compactAt int      // occupancy at which Expire next compacts
	now       int64    // latest cycle passed to Expire, Lookup or Full
	earliest  int64    // no entry completes before this cycle: sweeping sooner reclaims nothing
	// Where the latest Lookup's scan for probeLine ended: its slot, or n if
	// the line has none; -1 once slots have moved or been added. A miss is a
	// Lookup that finds nothing live followed by an Allocate of the same
	// line, and this saves the Allocate its scan of the same array.
	probeLine uint64
	probeSlot int
}

// minCompactAt keeps a nearly empty file from compacting on every miss.
const minCompactAt = 8

// NewMSHRFile returns an MSHR file with the given entry capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		capacity = 1
	}
	m := &MSHRFile{
		capacity: capacity,
		lines:    make([]uint64, capacity),
		comps:    make([]int64, capacity),
	}
	m.compact()
	return m
}

// Lookup returns the completion cycle of a miss on line still outstanding at
// cycle now, if one exists. A dead entry is reported as absent: the data
// already returned, so there is nothing to merge into. Line addresses are
// unique in the file (Allocate merges), so at most one entry can match.
func (m *MSHRFile) Lookup(now int64, line uint64) (completion int64, ok bool) {
	m.now = now
	i := m.find(line)
	m.probeLine, m.probeSlot = line, i
	if i < m.n && m.comps[i] > now {
		return m.comps[i], true
	}
	return 0, false
}

// find returns the slot holding line, live or dead, or n if there is none.
func (m *MSHRFile) find(line uint64) int {
	for i, l := range m.lines[:m.n] {
		if l == line {
			return i
		}
	}
	return m.n
}

// Full reports whether a new line can no longer be allocated at cycle now,
// i.e. whether capacity misses are still outstanding.
func (m *MSHRFile) Full(now int64) bool {
	m.now = now
	if m.n < m.capacity {
		return false
	}
	m.reclaim()
	return m.n >= m.capacity
}

// Allocate records an outstanding miss on line completing at the given
// cycle, which must lie after the latest cycle the file was shown. It
// reports false if capacity misses are outstanding and line is not among
// them. Allocating an already-present line merges: the later completion
// time wins (conservative — data cannot arrive before the slowest merge).
func (m *MSHRFile) Allocate(line uint64, completion int64) bool {
	if m.n >= m.capacity {
		m.reclaim() // only live entries may refuse a miss
	}
	i := m.probeSlot
	if i < 0 || m.probeLine != line {
		i = m.find(line)
	}
	m.probeSlot = -1
	if i < m.n {
		if completion > m.comps[i] {
			m.comps[i] = completion
		}
		return true
	}
	if m.n >= m.capacity {
		return false
	}
	m.lines[i] = line
	m.comps[i] = completion
	m.n++
	if completion < m.earliest {
		m.earliest = completion
	}
	return true
}

// Expire tells the file the clock has reached now and lets it reclaim dead
// entries — the once-per-tick call. It sweeps only when enough slots have
// been filled since the last sweep to pay for it.
func (m *MSHRFile) Expire(now int64) {
	m.now = now
	if m.n >= m.compactAt {
		m.reclaim()
	}
}

// reclaim compacts unless no entry can have died yet — the guard that keeps
// a file full of live entries (the MSHR-stall regime) from sweeping on every
// tick and every refused miss.
func (m *MSHRFile) reclaim() {
	if m.now >= m.earliest {
		m.compact()
	}
}

// compact drops every entry dead at m.now and schedules the next sweep at
// twice the survivors.
func (m *MSHRFile) compact() {
	live := 0
	m.probeSlot = -1
	m.earliest = math.MaxInt64
	for i, c := range m.comps[:m.n] {
		if c > m.now {
			m.lines[live], m.comps[live] = m.lines[i], c
			live++
			if c < m.earliest {
				m.earliest = c
			}
		}
	}
	m.n = live
	m.compactAt = 2 * live
	if m.compactAt < minCompactAt {
		m.compactAt = minCompactAt
	}
	if m.compactAt > m.capacity {
		m.compactAt = m.capacity
	}
}

// NextCompletion returns the earliest completion cycle among the misses
// outstanding at cycle now, and false if there are none. Only the MSHR-stall
// path asks (a full file delays the next miss until an entry frees), so it
// is a scan, not a maintained minimum.
func (m *MSHRFile) NextCompletion(now int64) (int64, bool) {
	next, ok := int64(0), false
	for _, c := range m.comps[:m.n] {
		if c > now && (!ok || c < next) {
			next, ok = c, true
		}
	}
	return next, ok
}

// Outstanding returns the number of misses outstanding at cycle now: entries
// whose data has not returned yet. Dead entries awaiting compaction are not
// counted, so the answer does not depend on when the file was last swept.
func (m *MSHRFile) Outstanding(now int64) int {
	live := 0
	for _, c := range m.comps[:m.n] {
		if c > now {
			live++
		}
	}
	return live
}

// Capacity returns the entry capacity.
func (m *MSHRFile) Capacity() int { return m.capacity }

// PublishObs stores the MSHR file's occupancy at cycle now into the given
// metrics scope. No-op on a nil scope.
func (m *MSHRFile) PublishObs(sc *obs.Scope, now int64) {
	if sc == nil {
		return
	}
	live := float64(m.Outstanding(now))
	sc.Gauge("outstanding").Set(live)
	sc.Gauge("occupancy").Set(live / float64(m.capacity))
}
