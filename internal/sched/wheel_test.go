package sched

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// wakeDistances are the park distances the cross-check draws from: the
// short latencies that dominate real runs, DRAM-like round trips (which the
// slots hold, up to Horizon-1), both sides of the slot/heap hand-off
// (Horizon and Horizon+1 take the heap), and beyond.
var wakeDistances = []int64{1, 1, 2, 4, 4, 30, 64, 177, 300, 310, 420, Horizon - 1, Horizon, Horizon + 1, 2*Horizon - 1, 1000}

// TestWheelMatchesHeap drives the wheel and a plain Heap through randomized
// park / remove / move / drain schedules and demands the same set of due
// ids at every drain, a Count that predicts it, and the same next wake-up
// after every step. Drains advance by one cycle, skip exactly to the next
// wake-up as the event loops do, arrive late by up to several horizons, or
// repeat the previous drain's cycle.
// Moves go near -> near, near -> far, far -> near and far -> far. Two park
// shapes come from the timing kernel rather than the SM: a unit scheduled
// at the cycle about to be drained (ScheduleNow after the clock advanced,
// the furthest base+1 can be) and one rescheduled at the cycle just drained
// (at base, which only the heap can hold). 130 ids make every slot three
// words wide.
func TestWheelMatchesHeap(t *testing.T) {
	const unparked = -1
	for _, n := range []int{48, 64, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		var w Wheel
		w.Init(n)
		ref := NewHeap(n)
		at := make([]int64, n)
		for i := range at {
			at[i] = unparked
		}
		parked := 0
		now := int64(0) // cycle of the latest drain, the wheel's base
		w.Due(now)
		dist := func() int64 { return wakeDistances[rng.Intn(len(wakeDistances))] }
		free := func() int {
			id := rng.Intn(n)
			for at[id] != unparked {
				id = (id + 1) % n
			}
			return id
		}
		busy := func() int {
			id := rng.Intn(n)
			for at[id] == unparked {
				id = (id + 1) % n
			}
			return id
		}
		park := func(id int, c int64) {
			at[id] = c
			w.Park(id, c)
			ref.Set(id, c)
			parked++
		}
		for iter := 0; iter < 300000; iter++ {
			switch op := rng.Intn(20); {
			case op < 8 && parked < n:
				park(free(), now+dist())
			case op < 9 && parked < n:
				park(free(), now) // rescheduled at the cycle just drained
			case op < 10 && parked > 0:
				id := busy()
				w.Remove(id, at[id])
				ref.Remove(id)
				at[id] = unparked
				parked--
			case op < 12 && parked > 0: // move a parked id's wake-up
				id := busy()
				w.Remove(id, at[id])
				ref.Remove(id)
				parked--
				park(id, now+dist())
			case op >= 12: // drain
				switch c, ok := w.Next(); {
				case rng.Intn(3) == 0 && ok && c > now:
					now = c // event skip: exactly the earliest wake-up
				case rng.Intn(8) == 0:
					now += 1 + int64(rng.Intn(3*Horizon)) // late: past any number of wake-ups
				case rng.Intn(8) == 0:
					// again at the same cycle, after parks one horizon out
				default:
					now++
				}
				for k := rng.Intn(3); k > 0 && parked < n; k-- {
					park(free(), now) // scheduled at the cycle about to be drained
				}
				want := make([]uint64, (n+63)/64)
				for ref.Len() > 0 && ref.MinKey() <= now {
					id, _ := ref.Pop()
					want[id>>6] |= 1 << (uint(id) & 63)
				}
				count := 0
				for _, b := range want {
					count += bits.OnesCount64(b)
				}
				if got := w.Count(now); got != count {
					t.Fatalf("%d ids, iter %d: Count(%d) = %d, heap has %d due", n, iter, now, got, count)
				}
				got := w.Due(now)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%d ids, iter %d: Due(%d) word %d = %#x, heap pops %#x", n, iter, now, i, got[i], want[i])
					}
					got[i] = 0 // Due's contract: the consumer zeroes what it read
					for b := want[i]; b != 0; b &= b - 1 {
						at[i<<6+bits.TrailingZeros64(b)] = unparked
						parked--
					}
				}
			}
			c, ok := w.Next()
			if ok != (ref.Len() > 0) || (ok && c != ref.MinKey()) {
				t.Fatalf("%d ids, iter %d: Next() = %d,%v, heap has %d entries", n, iter, c, ok, ref.Len())
			}
		}
	}
}

// BenchmarkWheel measures the timing kernel's use of the wheel: drain the
// due ids, re-park each a mixed near or DRAM-length distance out, and move
// to the next cycle — the following one on odd drains, the earliest wake-up
// on even ones. ids/op reports how many ids one drain handed back.
func BenchmarkWheel(b *testing.B) {
	dists := [8]int64{1, 4, 1, 30, 2, 300, 12, 450}
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("%dids", n), func(b *testing.B) {
			var w Wheel
			w.Init(n)
			now := int64(1)
			for id := 0; id < n; id++ {
				w.Park(id, now)
			}
			drained := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				due := w.Due(now)
				for j, m := range due {
					due[j] = 0
					for ; m != 0; m &= m - 1 {
						id := j<<6 + bits.TrailingZeros64(m)
						w.Park(id, now+dists[(i+id)&7])
						drained++
					}
				}
				if next, _ := w.Next(); i&1 == 0 && next > now {
					now = next
				} else {
					now++
				}
			}
			b.ReportMetric(float64(drained)/float64(b.N), "ids/op")
		})
	}
}
