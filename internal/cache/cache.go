// Package cache implements the set-associative caches used by the GPU
// timing simulator: per-SM private L1 data caches and the shared,
// address-interleaved last-level cache (LLC) slices. It also provides the
// MSHR (miss-status holding register) file used to merge concurrent misses
// to the same line.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"gpuscale/internal/obs"
)

// Cache is a set-associative, LRU-replacement cache operating at cache-line
// granularity. It is a functional hit/miss model: timing is handled by the
// simulator that drives it. The zero value is not usable; use New.
type Cache struct {
	ways     int
	sets     int
	lineBits uint
	setMask  uint64
	// tags[set*ways+w] holds the line tag resident in way w. Way positions
	// are fixed; recency lives in the intrusive list below. Empty ways hold
	// invalidTag, which no real line can equal (line addresses are byte
	// addresses shifted right by the offset bits), so residency is a single
	// tag compare and the scan is one sequential pass over the set's words.
	tags []uint64
	// Intrusive per-set recency order: prev/next (indexed set*ways+way,
	// holding way indices within the set) form a circular doubly-linked
	// list; head[set] is the MRU way and prev[head] therefore the LRU
	// victim. A hit unlinks its way and relinks it at the head, a miss
	// overwrites the tail and rotates the head onto it — both O(1),
	// replacing the old copy-shift of the set's recency-ordered tags that
	// led the simulator's CPU profile.
	prev, next []uint16
	head       []uint16
	// Sectored mode (the uarch.L1Sectored variant): sectorValid[set*ways+w]
	// is a bitmask of the valid sectors in way w, and a tag hit whose
	// sector bit is clear is a sector miss that fills only that sector. Nil
	// in line-grain caches, whose Access path is untouched.
	sectorValid []uint64
	sectorShift uint
	sectorMask  uint64 // sectorsPerLine - 1

	hits   uint64
	misses uint64

	// sigs[set*ways+w] is a one-byte hash of the line in way w, kept only by
	// highly associative caches (the 64-way LLC slices; nil otherwise). A
	// lookup compares eight signatures per step and checks the full tag of
	// the few ways that match, where the plain scan reads every tag of the
	// set — which is all of them on a miss.
	sigs []uint8
	// offPlain is set when Access has to leave its plain path — the cache
	// keeps signatures or is sectored — so that the L1s' line-grain path
	// tests one flag, as it did when sectoring was the only alternative.
	offPlain bool
}

// invalidTag marks an unoccupied way. Line addresses lose their offset bits
// to the right shift, so the all-ones pattern cannot collide with a line.
const invalidTag = ^uint64(0)

// New constructs a cache with the given total capacity in bytes, the number
// of ways, and the line size (a power of two). Capacity is rounded down to
// a whole number of sets; a cache always has at least one set.
func New(capacityBytes int64, ways, lineSize int) (*Cache, error) {
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacityBytes)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("cache: ways must be positive, got %d", ways)
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("cache: line size must be a positive power of two, got %d", lineSize)
	}
	lines := capacityBytes / int64(lineSize)
	if lines < int64(ways) {
		ways = int(lines)
		if ways == 0 {
			return nil, fmt.Errorf("cache: capacity %d smaller than one line", capacityBytes)
		}
	}
	sets := int(lines) / ways
	// Round sets down to a power of two so the index is a mask.
	for sets&(sets-1) != 0 {
		sets &^= sets & -sets
	}
	if sets == 0 {
		sets = 1
	}
	if ways > 1<<16-1 {
		return nil, fmt.Errorf("cache: associativity %d exceeds the intrusive-LRU link width (max %d)", ways, 1<<16-1)
	}
	lb := uint(0)
	for 1<<lb != lineSize {
		lb++
	}
	tags := make([]uint64, sets*ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	c := &Cache{
		ways:     ways,
		sets:     sets,
		lineBits: lb,
		setMask:  uint64(sets - 1),
		tags:     tags,
		prev:     make([]uint16, sets*ways),
		next:     make([]uint16, sets*ways),
		head:     make([]uint16, sets),
	}
	// Each set starts as the circular list 0 → 1 → … → ways-1 with way 0 at
	// the head, so the first victim is way ways-1 and empty ways fill
	// back-to-front — the same fill order the recency-array layout had.
	for base := 0; base < sets*ways; base += ways {
		next, prev := c.next[base:base+ways], c.prev[base:base+ways]
		for w := range next {
			next[w] = uint16(w + 1)
			prev[w] = uint16(w - 1)
		}
		next[ways-1], prev[0] = 0, uint16(ways-1)
	}
	if ways >= sigMinWays && ways%8 == 0 {
		c.sigs = make([]uint8, sets*ways)
		c.offPlain = true
	}
	return c, nil
}

// sigMinWays is the associativity from which a cache keeps way signatures:
// below it the tag scan is a handful of compares and the signatures would
// only add a store to every fill.
const sigMinWays = 16

// sigOf is the signature of a line: the top byte of a multiplicative hash,
// so it does not depend on the set-index bits the lines of a set share.
func sigOf(line uint64) uint8 { return uint8(line * 0x9e3779b97f4a7c15 >> 56) }

// MustNew is New but panics on error.
func MustNew(capacityBytes int64, ways, lineSize int) *Cache {
	c, err := New(capacityBytes, ways, lineSize)
	if err != nil {
		panic(err)
	}
	return c
}

// NewSectored constructs a sectored cache: lines are tagged at lineSize
// granularity but filled sectorSize bytes at a time, so a tag hit on an
// invalid sector counts as a (sector) miss that fetches only that sector.
// sectorSize must be a power of two no larger than lineSize with at most 64
// sectors per line; sectorSize == lineSize degenerates to the line-grain
// cache.
func NewSectored(capacityBytes int64, ways, lineSize, sectorSize int) (*Cache, error) {
	c, err := New(capacityBytes, ways, lineSize)
	if err != nil {
		return nil, err
	}
	if sectorSize <= 0 || sectorSize&(sectorSize-1) != 0 {
		return nil, fmt.Errorf("cache: sector size must be a positive power of two, got %d", sectorSize)
	}
	if sectorSize > lineSize {
		return nil, fmt.Errorf("cache: sector size %d exceeds line size %d", sectorSize, lineSize)
	}
	nSectors := lineSize / sectorSize
	if nSectors > 64 {
		return nil, fmt.Errorf("cache: %d sectors per line exceed the 64-bit valid mask", nSectors)
	}
	if nSectors == 1 {
		return c, nil // one sector per line is exactly the line-grain cache
	}
	sb := uint(0)
	for 1<<sb != sectorSize {
		sb++
	}
	c.sectorValid = make([]uint64, c.sets*c.ways)
	c.sigs = nil // sectored caches are L1s: accessSectored keeps to the plain scan
	c.offPlain = true
	c.sectorShift = sb
	c.sectorMask = uint64(nSectors - 1)
	return c, nil
}

// MustNewSectored is NewSectored but panics on error.
func MustNewSectored(capacityBytes int64, ways, lineSize, sectorSize int) *Cache {
	c, err := NewSectored(capacityBytes, ways, lineSize, sectorSize)
	if err != nil {
		panic(err)
	}
	return c
}

// LineAddr returns the line-granular address (byte address with the offset
// bits stripped) for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits }

// findWay scans one set for the line (the full line address doubles as the
// tag) and returns the way holding it, or -1 on a miss. base is the set's
// first index into tags. Caches that keep signatures (c.sigs != nil) use
// findWayBySig instead (accessBySig, Probe).
func (c *Cache) findWay(base int, line uint64) int {
	for i, t := range c.tags[base : base+c.ways] {
		if t == line {
			return i
		}
	}
	return -1
}

// findWayBySig is findWay over the set's signatures, eight ways per step: a
// zero byte of sigs^pattern marks a candidate way, whose tag decides. The
// zero-byte test may also flag the byte above a true match (the borrow
// travels upwards), and an empty way's stale signature may match; both fail
// the tag compare, since no line equals invalidTag.
func (c *Cache) findWayBySig(base int, line uint64) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	pattern := uint64(sigOf(line)) * ones
	sigs := c.sigs[base : base+c.ways]
	for i := 0; i < len(sigs); i += 8 {
		x := binary.LittleEndian.Uint64(sigs[i:]) ^ pattern
		for m := (x - ones) &^ x & highs; m != 0; m &= m - 1 {
			if w := i + bits.TrailingZeros64(m)>>3; c.tags[base+w] == line {
				return w
			}
		}
	}
	return -1
}

// touch relinks a hit way to the head of its set's recency list. The tail
// is re-read after the unlink — when the hit way *is* the tail, unlinking
// moves the tail pointer.
func (c *Cache) touch(set, base, w, h int) {
	if w == h {
		return
	}
	p, n := c.prev[base+w], c.next[base+w]
	c.next[base+int(p)] = n
	c.prev[base+int(n)] = p
	t := c.prev[base+h]
	c.next[base+int(t)] = uint16(w)
	c.prev[base+w] = t
	c.next[base+w] = uint16(h)
	c.prev[base+h] = uint16(w)
	c.head[set] = uint16(w)
}

// Access looks up addr, updates LRU state and statistics, and on a miss
// installs the line (allocate-on-miss for both loads and stores). It returns
// true on a hit. In sectored mode a tag hit still requires the accessed
// sector's valid bit; a clear bit is a sector miss that fills just that
// sector.
func (c *Cache) Access(addr uint64) bool {
	if c.offPlain {
		if c.sectorValid != nil {
			return c.accessSectored(addr)
		}
		return c.accessBySig(addr)
	}
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.ways
	h := int(c.head[set])
	if w := c.findWay(base, line); w >= 0 {
		c.hits++
		c.touch(set, base, w, h)
		return true
	}
	// Miss: overwrite the LRU tail in place and rotate the head onto it —
	// the list order itself is already correct.
	victim := int(c.prev[base+h])
	c.tags[base+victim] = line
	c.head[set] = uint16(victim)
	c.misses++
	return false
}

// accessBySig is the line-grain Access of a cache that keeps signatures:
// the same steps, with the lookup by signature and the fill recording one.
func (c *Cache) accessBySig(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.ways
	h := int(c.head[set])
	if w := c.findWayBySig(base, line); w >= 0 {
		c.hits++
		c.touch(set, base, w, h)
		return true
	}
	victim := int(c.prev[base+h])
	c.tags[base+victim] = line
	c.sigs[base+victim] = sigOf(line)
	c.head[set] = uint16(victim)
	c.misses++
	return false
}

func (c *Cache) accessSectored(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.ways
	h := int(c.head[set])
	bit := uint64(1) << ((addr >> c.sectorShift) & c.sectorMask)
	if w := c.findWay(base, line); w >= 0 {
		// The line is referenced either way, so recency updates on sector
		// misses too.
		c.touch(set, base, w, h)
		if c.sectorValid[base+w]&bit != 0 {
			c.hits++
			return true
		}
		c.sectorValid[base+w] |= bit
		c.misses++
		return false
	}
	victim := int(c.prev[base+h])
	c.tags[base+victim] = line
	c.sectorValid[base+victim] = bit // a fresh line starts with only this sector
	c.head[set] = uint16(victim)
	c.misses++
	return false
}

// Probe reports whether addr is resident without updating LRU state or
// statistics; in sectored mode the accessed sector must be valid too.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineBits
	base := int(line&c.setMask) * c.ways
	var w int
	if c.sigs != nil {
		w = c.findWayBySig(base, line)
	} else {
		w = c.findWay(base, line)
	}
	if w < 0 {
		return false
	}
	if c.sectorValid != nil {
		bit := uint64(1) << ((addr >> c.sectorShift) & c.sectorMask)
		return c.sectorValid[base+w]&bit != 0
	}
	return true
}

// Sectored reports whether the cache fills at sector rather than line
// granularity.
func (c *Cache) Sectored() bool { return c.sectorValid != nil }

// Hits returns the number of hits recorded by Access.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses recorded by Access.
func (c *Cache) Misses() uint64 { return c.misses }

// Accesses returns hits + misses.
func (c *Cache) Accesses() uint64 { return c.hits + c.misses }

// MissRate returns misses / accesses, or 0 if the cache was never accessed.
func (c *Cache) MissRate() float64 {
	a := c.Accesses()
	if a == 0 {
		return 0
	}
	return float64(c.misses) / float64(a)
}

// Sets returns the number of sets (after power-of-two rounding).
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// CapacityLines returns sets × ways.
func (c *Cache) CapacityLines() int { return c.sets * c.ways }

// ResetStats clears hit/miss counters without touching cache contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// PublishObs stores the cache's hit/miss totals into the given metrics
// scope. Idempotent (Store semantics); no-op on a nil scope.
func (c *Cache) PublishObs(sc *obs.Scope) {
	if sc == nil {
		return
	}
	sc.Counter("hits").Store(c.hits)
	sc.Counter("misses").Store(c.misses)
	sc.Gauge("miss_rate").Set(c.MissRate())
}
