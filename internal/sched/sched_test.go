package sched

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHeapPopsByCycleThenUnit(t *testing.T) {
	h := NewHeap(8)
	// Two units at cycle 5, two at cycle 3, one at cycle 9 — inserted in a
	// scrambled order.
	h.Set(6, 5)
	h.Set(1, 9)
	h.Set(4, 3)
	h.Set(2, 5)
	h.Set(0, 3)
	want := []struct {
		unit int
		key  int64
	}{{0, 3}, {4, 3}, {2, 5}, {6, 5}, {1, 9}}
	for _, w := range want {
		u, k := h.Pop()
		if u != w.unit || k != w.key {
			t.Fatalf("Pop() = (%d, %d), want (%d, %d)", u, k, w.unit, w.key)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len() = %d after draining, want 0", h.Len())
	}
}

func TestHeapSetMovesExistingEntry(t *testing.T) {
	h := NewHeap(4)
	h.Set(0, 10)
	h.Set(1, 20)
	h.Set(2, 30)
	h.Set(2, 5) // move earlier
	if u, k := h.Pop(); u != 2 || k != 5 {
		t.Fatalf("Pop() = (%d, %d), want (2, 5)", u, k)
	}
	h.Set(0, 40) // move later
	if u, k := h.Pop(); u != 1 || k != 20 {
		t.Fatalf("Pop() = (%d, %d), want (1, 20)", u, k)
	}
	if u, k := h.Pop(); u != 0 || k != 40 {
		t.Fatalf("Pop() = (%d, %d), want (0, 40)", u, k)
	}
}

func TestHeapRemove(t *testing.T) {
	h := NewHeap(4)
	for i := 0; i < 4; i++ {
		h.Set(i, int64(10-i))
	}
	h.Remove(3) // current min
	h.Remove(1)
	h.Remove(1) // removing an absent unit is a no-op
	if h.Contains(3) || h.Contains(1) {
		t.Fatal("removed units still reported as contained")
	}
	if u, k := h.Pop(); u != 2 || k != 8 {
		t.Fatalf("Pop() = (%d, %d), want (2, 8)", u, k)
	}
	if u, k := h.Pop(); u != 0 || k != 10 {
		t.Fatalf("Pop() = (%d, %d), want (0, 10)", u, k)
	}
}

// TestHeapRandomizedAgainstSort drives the heap with random Set/Remove/Pop
// traffic and checks that Due counts the entries at or before a cycle and
// every drain comes out in (cycle, unit) order.
func TestHeapRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const units = 64
	for trial := 0; trial < 200; trial++ {
		h := NewHeap(units)
		live := map[int]int64{}
		for op := 0; op < 300; op++ {
			u := rng.Intn(units)
			switch rng.Intn(3) {
			case 0, 1:
				k := int64(rng.Intn(50))
				h.Set(u, k)
				live[u] = k
			case 2:
				h.Remove(u)
				delete(live, u)
			}
		}
		type ent struct {
			unit int
			key  int64
		}
		var want []ent
		for u, k := range live {
			want = append(want, ent{u, k})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].key != want[j].key {
				return want[i].key < want[j].key
			}
			return want[i].unit < want[j].unit
		})
		if h.Len() != len(want) {
			t.Fatalf("trial %d: Len() = %d, want %d", trial, h.Len(), len(want))
		}
		c := int64(rng.Intn(52)) - 1
		due := 0
		for _, w := range want {
			if w.key <= c {
				due++
			}
		}
		if got := h.Due(c); got != due {
			t.Fatalf("trial %d: Due(%d) = %d, want %d", trial, c, got, due)
		}
		for i, w := range want {
			u, k := h.Pop()
			if u != w.unit || k != w.key {
				t.Fatalf("trial %d pop %d: got (%d, %d), want (%d, %d)", trial, i, u, k, w.unit, w.key)
			}
		}
	}
}

func TestHeapAllocationFree(t *testing.T) {
	h := NewHeap(32)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			h.Set(i, int64(i%7))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}); n != 0 {
		t.Fatalf("heap operations allocated %.1f times per run, want 0", n)
	}
}
