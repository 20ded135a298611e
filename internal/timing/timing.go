// Package timing is the cycle-advance kernel behind the event-driven run
// loop of internal/gpu. It owns the wake-up machinery — which units are due
// at which cycle, in what order they tick within a cycle, how far the clock
// may skip when nobody can issue, and the lazy stall-accrual bookkeeping
// that keeps per-cycle classification exact without touching stalled units.
//
// The wake-up structure is hierarchical:
//
//   - A due-wheel: one bitset of units per cycle over a small power-of-two
//     horizon (default 64 cycles). A wake-up landing within the horizon is
//     two stores (set a bit in the slot's bitset, set the slot's bit in a
//     one-word occupancy mask) and never pays for heap ordering. This
//     absorbs not just next-cycle wake-ups but the short memory latencies —
//     L1 hits, LLC hits, near-horizon DRAM returns — that previously
//     spilled into the heap on every miss.
//   - An indexed min-heap (internal/sched) for wake-ups at or beyond the
//     horizon (DRAM round trips, inter-chiplet hops). Entries whose cycle
//     comes due are merged into the wheel's current slot at the top of
//     Step, so the drain below sees one uniform structure.
//
// Within a visited cycle, units tick in ascending unit id: the slot bitset
// is walked with bits.TrailingZeros64 (low to high = ascending id) and the
// heap breaks key ties toward the smaller index, so merged entries preserve
// the same order. That order is architecturally visible — the simulators'
// shared resources (NoC ports, LLC slices, memory controllers, CTA queues)
// are order-sensitive within a cycle — and matches the dense reference
// loops, which is what keeps event-driven results bit-identical to them.
//
// Invariants the kernel maintains (and the simulators rely on):
//
//   - A unit has at most one pending wake-up, recorded in wakeAt: it lives
//     in exactly one wheel slot or the heap, never both. A unit with no
//     pending wake-up is idle and is only re-entered via ScheduleNow (a CTA
//     launch in the simulators).
//   - The clock never skips past a pending wake-up: the skip target is the
//     minimum of the wheel's next occupied slot and the heap's minimum key.
//   - Every unit's every cycle is classified exactly once: the interval
//     [accrueAt[u], now) is settled with one Driver.AccrueStall call before
//     the unit ticks (or when a reader flushes), and the visited cycle
//     itself with one Driver.AccrueTick call at the end of Step.
//
// The kernel is deliberately ignorant of what a "unit" is. The simulator
// supplies a Driver; per-visited-cycle work the simulators batch (MSHR
// expiry before the tick, warm-up resets after the event charge) hangs off
// TickUnit and CycleEnd.
//
// # Driver contract
//
// The kernel decides which units tick at which cycle; the Driver does the
// ticking and the accounting. TickUnit runs once per due unit per visited
// cycle, in ascending unit id; AccrueStall settles a unit's un-ticked
// interval in one call; AccrueTick classifies each ticked unit's own cycle;
// CycleEnd runs once per visited cycle between the last TickUnit and the
// AccrueTick batch. Driver methods must not call back into the Kernel
// except CycleEnd, which may call RaiseAccrualFloor and ResetSkipped (the
// warm-up reset path).
//
// # Phase API and barrier ordering
//
// Step is also exposed as its composable phases, which is how the sharded
// run loop (internal/gpu with Options.Shards > 1, coordinated by
// internal/parallel) drives one private Kernel per shard in lockstep:
//
//   - TickCycle drains the current cycle's due units (ascending unit id
//     within each shard's kernel) and reports whether any unit issued; Due
//     counts them beforehand, so a coordinator can size the cycle's work.
//   - FinishCycle runs the driver's CycleEnd hook and the AccrueTick batch.
//   - NextPending exposes the earliest pending wake-up so a coordinator can
//     take the minimum across kernels.
//   - AdvanceTo moves the clock to the cycle the coordinator picked,
//     charging the skipped-cycle counter exactly as Step would.
//   - Reschedule and WakeAt let the coordinator repair a provisional
//     wake-up between cycles (the sharded loop's deferred-memory fix-ups).
//
// The ordering rules a parallel coordinator must preserve for bit-identity
// with sequential Step are: every kernel finishes TickCycle+FinishCycle for
// cycle c before any cross-kernel effect of cycle c is applied (the cycle
// barrier); cross-kernel effects are applied in ascending shard id, which —
// because shards own contiguous unit-id ranges — is ascending global unit
// id, the same order the sequential drain produces; and all kernels
// AdvanceTo the same next cycle, computed as now+1 if any kernel's
// TickCycle issued, else the minimum NextPending across kernels (clamped to
// now+1). See docs/PARALLELISM.md for the full argument.
package timing

import (
	"fmt"
	"math/bits"

	"gpuscale/internal/sched"
)

// NoWake is the Outcome.Wake value meaning the unit has no pending wake-up
// and goes idle until ScheduleNow re-enters it.
const NoWake int64 = -1

// DefaultHorizon is the due-wheel span in cycles when Config.Horizon is 0.
// 64 keeps the occupancy mask a single word while covering the short
// wake-up distances (compute latencies, L1/LLC hits and queueing) that
// dominate the simulator's reschedules.
const DefaultHorizon = 64

// Outcome is what Driver.TickUnit reports back for one unit tick.
type Outcome struct {
	// Wake is the next cycle the unit can act, or NoWake if the unit is
	// idle (no ready warp, nothing pending). It must be NoWake or a cycle
	// strictly greater than the tick's now.
	Wake int64
	// Kind is the cycle classification the driver's AccrueTick will receive
	// for this tick (the simulators store sm.TickKind here).
	Kind uint8
	// Issued reports whether the unit did work that forces the clock to
	// advance by exactly one cycle (an instruction issue). If no ticked
	// unit issues, the kernel event-skips to the next wake-up.
	Issued bool
}

// Driver is the simulator half of the kernel contract. The kernel decides
// which units tick at which cycle; the driver does the ticking and the
// accounting. None of the methods may call back into the Kernel except
// CycleEnd, which may call RaiseAccrualFloor and ResetSkipped (the warm-up
// reset path).
type Driver interface {
	// TickUnit ticks one due unit at the given cycle. The simulators run
	// their per-visited-cycle batched work here (MSHR expiry immediately
	// before the SM tick) and their own bookkeeping (issue counters,
	// retirement-driven launch re-scans).
	TickUnit(now int64, unit int) Outcome
	// AccrueStall settles a unit's standing stall classification over an
	// interval of cycles in which it was not ticked (one call per interval,
	// not per cycle).
	AccrueStall(unit int, cycles uint64)
	// AccrueTick classifies a ticked unit's own cycle with the Kind its
	// TickUnit returned.
	AccrueTick(unit int, kind uint8)
	// CycleEnd runs once per visited cycle after every due unit has ticked
	// and before their cycle classifications are accrued — the point where
	// the simulators charge per-cycle simulation events and check warm-up.
	CycleEnd(now int64)
}

// Config sizes a Kernel.
type Config struct {
	// Units is the number of tickable units (SMs, domain-major on a
	// multi-chiplet package).
	Units int
	// Horizon is the due-wheel span in cycles: a power of two in [1, 64],
	// or 0 for DefaultHorizon. Wake-ups closer than Horizon cycles go to
	// the wheel; the rest to the heap. Horizon 1 degenerates to a pure
	// heap (useful as a property-test reference point).
	Horizon int
	// NoSkip disables event-skipping: the clock advances one cycle at a
	// time even when nothing issues (the event-skip ablation mode).
	NoSkip bool
}

// Kernel is the shared cycle-advance engine. Use New; the zero value is
// unusable. A Kernel allocates only at construction — Step, ScheduleNow and
// the flush methods are allocation-free, which the simulators' steady-state
// zero-alloc guards depend on.
type Kernel struct {
	d       Driver
	units   int
	horizon int
	hmask   int64       // horizon - 1
	words   int         // bitset words per wheel slot: ceil(units/64)
	wheel   []uint64    // horizon × words slot bitsets, slot = cycle & hmask
	busy    uint64      // bit s set ⇒ slot s may hold entries
	wakeAt  []int64     // unit → pending wake-up cycle, NoWake if none
	heap    *sched.Heap // beyond-horizon wake-ups
	now     int64
	noSkip  bool
	skipped int64

	accrueAt   []int64 // unit → first cycle not yet classified
	tickedID   []int   // scratch: units ticked this cycle
	tickedKind []uint8
	nTicked    int // ticked units recorded for the current cycle's FinishCycle
}

// New builds a Kernel over cfg.Units units driven by d.
func New(cfg Config, d Driver) (*Kernel, error) {
	if cfg.Units <= 0 {
		return nil, fmt.Errorf("timing: units must be positive, got %d", cfg.Units)
	}
	h := cfg.Horizon
	if h == 0 {
		h = DefaultHorizon
	}
	if h < 1 || h > 64 || h&(h-1) != 0 {
		return nil, fmt.Errorf("timing: horizon must be a power of two in [1, 64], got %d", cfg.Horizon)
	}
	if d == nil {
		return nil, fmt.Errorf("timing: nil driver")
	}
	k := &Kernel{
		d:          d,
		units:      cfg.Units,
		horizon:    h,
		hmask:      int64(h - 1),
		words:      (cfg.Units + 63) / 64,
		wakeAt:     make([]int64, cfg.Units),
		heap:       sched.NewHeap(cfg.Units),
		noSkip:     cfg.NoSkip,
		accrueAt:   make([]int64, cfg.Units),
		tickedID:   make([]int, cfg.Units),
		tickedKind: make([]uint8, cfg.Units),
	}
	k.wheel = make([]uint64, h*k.words)
	for i := range k.wakeAt {
		k.wakeAt[i] = NoWake
	}
	return k, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, d Driver) *Kernel {
	k, err := New(cfg, d)
	if err != nil {
		panic(err)
	}
	return k
}

// Now returns the current cycle — the cycle the next Step will visit.
func (k *Kernel) Now() int64 { return k.now }

// Skipped returns the cumulative cycles elided by event-skipping.
func (k *Kernel) Skipped() int64 { return k.skipped }

// ResetSkipped zeroes the skipped-cycle counter (the warm-up reset path).
func (k *Kernel) ResetSkipped() { k.skipped = 0 }

// Pending reports whether any unit has a pending wake-up.
func (k *Kernel) Pending() bool { return k.busy != 0 || k.heap.Len() > 0 }

// ScheduleNow schedules a unit to tick at the current cycle, before the
// next Step — the simulators call it when a CTA launch makes an idle (or
// later-scheduled) unit actionable immediately. Any pending future wake-up
// is dropped first, preserving the at-most-one-entry invariant; the unit's
// standing accrual interval is settled up to now before the launch can
// change its classification. Must not be called from inside Step.
func (k *Kernel) ScheduleNow(unit int) {
	k.flushAccrual(unit)
	if k.wakeAt[unit] == k.now {
		return // already due this cycle
	}
	k.drop(unit)
	slot := int(k.now & k.hmask)
	k.wheel[slot*k.words+unit>>6] |= 1 << (uint(unit) & 63)
	k.busy |= 1 << uint(slot)
	k.wakeAt[unit] = k.now
}

// drop removes a unit's pending wake-up entry, wherever it lives. The entry
// is in the wheel iff the unit's bit is set in the slot its wake cycle maps
// to — only this unit ever sets that bit, and it has at most one entry.
// Heap entries can sit at any distance (they are merged only when due), so
// a distance test would lie. No-op when the unit has no pending wake-up.
func (k *Kernel) drop(unit int) {
	c := k.wakeAt[unit]
	if c == NoWake {
		return
	}
	w := int(c&k.hmask)*k.words + unit>>6
	bit := uint64(1) << (uint(unit) & 63)
	if k.wheel[w]&bit != 0 {
		k.wheel[w] &^= bit
		k.dropBusyIfEmpty(int(c & k.hmask))
	} else {
		k.heap.Remove(unit)
	}
	k.wakeAt[unit] = NoWake
}

// Reschedule replaces a unit's pending wake-up (if any) with cycle c >= now.
// A wake-up at now lands in the current cycle's drain, so calling this
// before TickCycle makes the unit tick this very cycle. Unlike ScheduleNow
// it does not settle the unit's accrual interval: the sharded run loop uses
// it to repair a provisional wake-up between cycles, where the unit's stall
// classification is unchanged and flushing here would diverge from the
// sequential accounting. Must not be called from inside Step/TickCycle.
func (k *Kernel) Reschedule(unit int, c int64) {
	if k.wakeAt[unit] == c {
		return
	}
	k.drop(unit)
	k.wake(unit, c)
}

// WakeAt returns the unit's pending wake-up cycle, or NoWake if it is idle.
func (k *Kernel) WakeAt(unit int) int64 { return k.wakeAt[unit] }

// Due returns how many units the next TickCycle will tick, as things stand:
// the current wheel slot's units plus the heap entries that have come due.
// A coordinator reads it to size a cycle's work before dispatching it.
func (k *Kernel) Due() int {
	n := k.heap.Due(k.now)
	base := int(k.now&k.hmask) * k.words
	for _, w := range k.wheel[base : base+k.words] {
		n += bits.OnesCount64(w)
	}
	return n
}

// dropBusyIfEmpty clears the slot's occupancy bit when its bitset drained
// to zero, so the skip scan cannot stop at a cycle with nothing due (which
// would charge phantom per-cycle events and break bit-identity).
func (k *Kernel) dropBusyIfEmpty(slot int) {
	base := slot * k.words
	for _, w := range k.wheel[base : base+k.words] {
		if w != 0 {
			return
		}
	}
	k.busy &^= 1 << uint(slot)
}

// wake registers a unit's next wake-up cycle c > now: within the horizon it
// goes to the wheel, at or beyond it to the heap. (Distance exactly equal
// to the horizon must use the heap — its slot would alias the cycle
// currently being drained.)
func (k *Kernel) wake(unit int, c int64) {
	k.wakeAt[unit] = c
	if d := c - k.now; d > 0 && d < int64(k.horizon) {
		slot := int(c & k.hmask)
		k.wheel[slot*k.words+unit>>6] |= 1 << (uint(unit) & 63)
		k.busy |= 1 << uint(slot)
		return
	}
	k.heap.Set(unit, c)
}

// flushAccrual settles a unit's standing classification over
// [accrueAt[unit], now) with one Driver.AccrueStall call. Exact because the
// classification cannot change between the unit's ticks (see the gpu
// simulator's stall-kind invariant).
func (k *Kernel) flushAccrual(unit int) {
	if d := k.now - k.accrueAt[unit]; d > 0 {
		k.d.AccrueStall(unit, uint64(d))
		k.accrueAt[unit] = k.now
	}
}

// FlushAll settles every unit's accrual interval up to now, so aggregate
// statistics read exactly as if every cycle had been accrued eagerly.
func (k *Kernel) FlushAll() {
	for u := 0; u < k.units; u++ {
		k.flushAccrual(u)
	}
}

// RaiseAccrualFloor discards any un-flushed accrual interval preceding the
// current cycle — the warm-up statistics reset. Units already settled past
// now (those ticked this cycle sit at now+1) are left alone: lowering them
// would double-count the triggering cycle.
func (k *Kernel) RaiseAccrualFloor() {
	for u := range k.accrueAt {
		if k.accrueAt[u] < k.now {
			k.accrueAt[u] = k.now
		}
	}
}

// Step visits the current cycle: it ticks every due unit in ascending id
// order, runs the driver's cycle-end hook, classifies the ticked units'
// cycle, and advances the clock — by one cycle if any unit issued (or
// NoSkip is set), otherwise straight to the earliest pending wake-up. It is
// exactly TickCycle + FinishCycle + the advance decision; a parallel
// coordinator runs the same phases with barriers between them.
func (k *Kernel) Step() {
	issued := k.TickCycle()
	k.FinishCycle()
	if issued || k.noSkip {
		k.AdvanceTo(k.now + 1)
		return
	}
	next := k.NextPending()
	if next < k.now+1 {
		next = k.now + 1 // NoWake, or a heap entry already due this cycle
	}
	k.AdvanceTo(next)
}

// TickCycle visits the current cycle's drain phase: it merges due heap
// entries into the wheel and ticks every due unit in ascending id order,
// recording each tick's classification for FinishCycle. It reports whether
// any unit issued. A cycle with no due units is a valid no-op (TickCycle
// reports false); the sharded run loop hits that when another shard owns
// the cycle's only work.
func (k *Kernel) TickCycle() bool {
	now := k.now
	slot := int(now & k.hmask)
	base := slot * k.words
	// Merge due heap entries into the current slot so the drain below sees
	// one structure. Keys below now cannot exist (the clock never skips
	// past a pending wake-up).
	for k.heap.Len() > 0 && k.heap.MinKey() <= now {
		u, _ := k.heap.Pop()
		k.wheel[base+u>>6] |= 1 << (uint(u) & 63)
	}
	issued := false
	k.nTicked = 0
	for w := 0; w < k.words; w++ {
		idx := base + w
		for k.wheel[idx] != 0 {
			b := bits.TrailingZeros64(k.wheel[idx])
			k.wheel[idx] &^= 1 << uint(b)
			u := w<<6 + b
			k.wakeAt[u] = NoWake
			k.flushAccrual(u)
			out := k.d.TickUnit(now, u)
			k.accrueAt[u] = now + 1
			k.tickedID[k.nTicked] = u
			k.tickedKind[k.nTicked] = out.Kind
			k.nTicked++
			if out.Issued {
				issued = true
			}
			if out.Wake != NoWake {
				k.wake(u, out.Wake)
			}
		}
	}
	k.busy &^= 1 << uint(slot)
	return issued
}

// FinishCycle completes the cycle TickCycle drained: it runs the driver's
// CycleEnd hook, then classifies the ticked units' own cycle. Ticked units
// are classified after CycleEnd because a warm-up reset there must land the
// triggering cycle in the post-reset window, matching the dense reference
// loops' ordering.
func (k *Kernel) FinishCycle() {
	k.d.CycleEnd(k.now)
	for j := 0; j < k.nTicked; j++ {
		k.d.AccrueTick(k.tickedID[j], k.tickedKind[j])
	}
	k.nTicked = 0
}

// NextPending returns the earliest pending wake-up cycle, or NoWake when no
// unit has one. Called between FinishCycle and AdvanceTo it is the kernel's
// event-skip candidate; a coordinator over several kernels takes the
// minimum across them. The result can be at or before now when a heap entry
// came due but the slot was not drained — callers clamp to now+1 exactly as
// Step does.
func (k *Kernel) NextPending() int64 {
	// The wheel's candidate comes from rotating the occupancy mask so the
	// scan starts at now+1; the low horizon bits of r are the true rotation
	// (garbage above them cannot win TrailingZeros64 when busy is non-zero).
	next := NoWake
	if k.busy != 0 {
		start := uint((k.now + 1) & k.hmask)
		r := k.busy>>start | k.busy<<(uint(k.horizon)-start)
		next = k.now + 1 + int64(bits.TrailingZeros64(r))
	}
	if k.heap.Len() > 0 {
		if mk := k.heap.MinKey(); next == NoWake || mk < next {
			next = mk
		}
	}
	return next
}

// AdvanceTo moves the clock to cycle c > now, charging the cycles in
// between to the skipped counter exactly as Step's event-skip does. All
// kernels under one coordinator must AdvanceTo the same cycle, and c must
// not be beyond any kernel's NextPending (the clock never skips past a
// pending wake-up).
func (k *Kernel) AdvanceTo(c int64) {
	k.skipped += c - k.now - 1
	k.now = c
}
