package cache

import (
	"fmt"
	"testing"
)

// BenchmarkCacheAccess measures one Access at a controlled LRU state:
// hit/mru through hit/lru pin the cost of a hit found at each recency depth
// (the way-scan plus the copy-shift to MRU), and miss-evict pins the full
// miss path with an eviction. The L1 geometry below (32 KiB, 8-way, 128 B
// lines) matches the baseline configuration's per-SM L1.
func BenchmarkCacheAccess(b *testing.B) {
	const (
		ways     = 8
		lineSize = 128
		capacity = 32 << 10
	)
	for depth := 0; depth < ways; depth++ {
		b.Run(fmt.Sprintf("hit/depth%d", depth), func(b *testing.B) {
			c := MustNew(capacity, ways, lineSize)
			// Fill one set: after these accesses, line k sits at recency
			// depth k (line 0 was touched last → MRU).
			addrs := make([]uint64, ways)
			for i := range addrs {
				addrs[i] = uint64(i) * uint64(lineSize) * uint64(c.Sets())
			}
			for i := ways - 1; i >= 0; i-- {
				c.Access(addrs[i])
			}
			target := addrs[depth]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(target)
				// Restore the probed line to its depth so every iteration
				// measures the same state: re-touch the lines above it.
				for j := depth - 1; j >= 0; j-- {
					c.Access(addrs[j])
				}
			}
		})
	}
	b.Run("miss-evict", func(b *testing.B) {
		c := MustNew(capacity, ways, lineSize)
		setStride := uint64(lineSize) * uint64(c.Sets())
		// Prime every way of set 0 so each miss below must evict.
		for i := 0; i < ways; i++ {
			c.Access(uint64(i) * setStride)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct line each iteration, always mapping to set 0.
			c.Access(uint64(ways+i) * setStride)
		}
	})
}

// BenchmarkMSHR measures one L1 miss as the run loops handle it — the
// per-tick Expire, a Lookup that finds nothing to merge into, the Full check
// and the Allocate — on the baseline 384-entry file. An SM sends a miss
// every few cycles (8 here) and a miss is outstanding for a few hundred,
// which sets how many live entries the scans cross; "saturated" shrinks the file until
// it is full of live entries, so the refused-miss path (on-demand reclaim,
// NextCompletion scan) is what is timed.
func BenchmarkMSHR(b *testing.B) {
	for _, c := range []struct {
		name              string
		capacity, latency int
	}{{"steady", 384, 300}, {"short-latency", 384, 50}, {"saturated", 16, 300}} {
		b.Run(c.name, func(b *testing.B) {
			m := NewMSHRFile(c.capacity)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now := int64(i) * 8
				line := uint64(i)
				m.Expire(now)
				if _, ok := m.Lookup(now, line); ok {
					continue
				}
				if m.Full(now) {
					sinkCompletion, _ = m.NextCompletion(now)
					continue
				}
				m.Allocate(line, now+int64(c.latency))
			}
		})
	}
}

var sinkCompletion int64
