// Package timing is the cycle-advance kernel behind the event-driven run
// loop of internal/gpu. It owns the wake-up machinery — which units are due
// at which cycle, in what order they tick within a cycle, and how far the
// clock may skip when nobody can issue. It keeps no per-unit accounting:
// a unit that is not ticked for a stretch of cycles classifies them itself
// when it is next ticked (internal/sm's SM does, see sm.SM.Settle).
//
// The wake-up structure is a sched.Wheel over unit ids, the same structure
// an SM parks its blocked warps in: one bitset of units per cycle over the
// next sched.Horizon (512) cycles, which absorbs compute latencies, cache
// hits and DRAM round trips in two stores each, and an indexed min-heap for
// the rare wake-up beyond that. wakeAt records the cycle each unit is
// parked at.
//
// Within a visited cycle, units tick in ascending unit id: the wheel hands
// the due units back as one bitset, heap entries merged in, which is walked
// with bits.TrailingZeros64 (low to high = ascending id). That order is
// architecturally visible — the simulators' shared resources (NoC ports,
// LLC slices, memory controllers, CTA queues) are order-sensitive within a
// cycle — and matches the dense reference loops, which is what keeps
// event-driven results bit-identical to them.
//
// Invariants the kernel maintains (and the simulators rely on):
//
//   - A unit has at most one pending wake-up, recorded in wakeAt and parked
//     in the wheel. A unit with no pending wake-up is idle and is only
//     re-entered via ScheduleNow (a CTA launch in the simulators).
//   - The clock never skips past a pending wake-up: the skip target is the
//     wheel's earliest parked cycle. Every visited cycle advances the clock
//     by one plus the cycles it skips, so visited and skipped cycles
//     partition the run.
//
// The kernel is deliberately ignorant of what a "unit" is. The simulator
// supplies a Driver; per-visited-cycle work the simulators batch (MSHR
// expiry before the tick, warm-up resets after the event charge) hangs off
// TickUnit and CycleEnd.
//
// # Driver contract
//
// The kernel decides which units tick at which cycle; the Driver does the
// ticking. TickUnit runs once per due unit per visited cycle, in ascending
// unit id; CycleEnd runs once per visited cycle after the last TickUnit.
// Driver methods must not call back into the Kernel except CycleEnd, which
// may call ResetSkipped (the warm-up reset path).
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
//     The coordinator ends the cycle itself, in place of CycleEnd.
//   - NextPending exposes the earliest pending wake-up so a coordinator can
//     take the minimum across kernels.
//   - AdvanceTo moves the clock to the cycle the coordinator picked,
//     charging the skipped-cycle counter exactly as Step would.
//   - Reschedule and WakeAt let the coordinator repair a provisional
//     wake-up between cycles (the sharded loop's deferred-memory fix-ups).
//
// The ordering rules a parallel coordinator must preserve for bit-identity
// with sequential Step are: every kernel finishes TickCycle for cycle c
// before any cross-kernel effect of cycle c is applied (the cycle
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

// Outcome is what Driver.TickUnit reports back for one unit tick.
type Outcome struct {
	// Wake is the next cycle the unit can act, or NoWake if the unit is
	// idle (no ready warp, nothing pending). It must be NoWake or a cycle
	// strictly greater than the tick's now.
	Wake int64
	// Issued reports whether the unit did work that forces the clock to
	// advance by exactly one cycle (an instruction issue). If no ticked
	// unit issues, the kernel event-skips to the next wake-up.
	Issued bool
}

// Driver is the simulator half of the kernel contract. The kernel decides
// which units tick at which cycle; the driver does the ticking. Neither
// method may call back into the Kernel except CycleEnd, which may call
// ResetSkipped (the warm-up reset path).
type Driver interface {
	// TickUnit ticks one due unit at the given cycle. The simulators run
	// their per-visited-cycle batched work here (MSHR expiry immediately
	// before the SM tick) and their own bookkeeping (issue counters,
	// retirement-driven launch re-scans).
	TickUnit(now int64, unit int) Outcome
	// CycleEnd runs once per visited cycle after every due unit has ticked
	// — the point where the simulators charge per-cycle simulation events
	// and check warm-up.
	CycleEnd(now int64)
}

// Config sizes a Kernel.
type Config struct {
	// Units is the number of tickable units (SMs, domain-major on a
	// multi-chiplet package).
	Units int
	// NoSkip disables event-skipping: the clock advances one cycle at a
	// time even when nothing issues (the event-skip ablation mode).
	NoSkip bool
}

// Kernel is the shared cycle-advance engine. Use New; the zero value is
// unusable. A Kernel allocates only at construction — Step and the
// scheduling methods are allocation-free, which the simulators'
// steady-state zero-alloc guards depend on.
type Kernel struct {
	d       Driver
	wheel   sched.Wheel // pending wake-ups by cycle
	wakeAt  []int64     // unit → pending wake-up cycle, NoWake if none
	now     int64
	noSkip  bool
	skipped int64
}

// New builds a Kernel over cfg.Units units driven by d.
func New(cfg Config, d Driver) (*Kernel, error) {
	if cfg.Units <= 0 {
		return nil, fmt.Errorf("timing: units must be positive, got %d", cfg.Units)
	}
	if d == nil {
		return nil, fmt.Errorf("timing: nil driver")
	}
	k := &Kernel{
		d:      d,
		wakeAt: make([]int64, cfg.Units),
		noSkip: cfg.NoSkip,
	}
	k.wheel.Init(cfg.Units)
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

// ScheduleNow schedules a unit to tick at the current cycle, before the
// next Step — the simulators call it when a CTA launch makes an idle (or
// later-scheduled) unit actionable immediately. Any pending future wake-up
// is dropped first, preserving the at-most-one-entry invariant. Must not be
// called from inside Step.
func (k *Kernel) ScheduleNow(unit int) { k.Reschedule(unit, k.now) }

// Reschedule replaces a unit's pending wake-up (if any) with cycle c >= now.
// A wake-up at now lands in the current cycle's drain, so calling this
// before TickCycle makes the unit tick this very cycle. The sharded run
// loop uses it to repair a provisional wake-up between cycles. Must not be
// called from inside Step/TickCycle.
func (k *Kernel) Reschedule(unit int, c int64) {
	if old := k.wakeAt[unit]; old == c {
		return
	} else if old != NoWake {
		k.wheel.Remove(unit, old)
	}
	k.wakeAt[unit] = c
	k.wheel.Park(unit, c)
}

// WakeAt returns the unit's pending wake-up cycle, or NoWake if it is idle.
func (k *Kernel) WakeAt(unit int) int64 { return k.wakeAt[unit] }

// Due returns how many units the next TickCycle will tick, as things stand.
// A coordinator reads it to size a cycle's work before dispatching it.
func (k *Kernel) Due() int { return k.wheel.Count(k.now) }

// Step visits the current cycle: it ticks every due unit in ascending id
// order, runs the driver's cycle-end hook, and advances the clock — by one
// cycle if any unit issued (or NoSkip is set), otherwise straight to the
// earliest pending wake-up. It is exactly TickCycle + CycleEnd + the
// advance decision; a parallel coordinator runs the same phases with
// barriers between them.
func (k *Kernel) Step() {
	issued := k.TickCycle()
	k.d.CycleEnd(k.now)
	if issued || k.noSkip {
		k.AdvanceTo(k.now + 1)
		return
	}
	next := k.NextPending()
	if next < k.now+1 {
		next = k.now + 1 // NoWake, or a wake-up already due this cycle
	}
	k.AdvanceTo(next)
}

// TickCycle visits the current cycle's drain phase: it ticks every due
// unit in ascending id order and reports whether any unit issued. A cycle
// with no due units is a valid no-op (TickCycle reports false); the sharded
// run loop hits that when another shard owns the cycle's only work.
func (k *Kernel) TickCycle() bool {
	now := k.now
	issued := false
	due := k.wheel.Due(now)
	for i, b := range due {
		due[i] = 0
		for ; b != 0; b &= b - 1 {
			u := i<<6 + bits.TrailingZeros64(b)
			k.wakeAt[u] = NoWake
			out := k.d.TickUnit(now, u)
			if out.Issued {
				issued = true
			}
			if out.Wake != NoWake {
				k.wakeAt[u] = out.Wake
				k.wheel.Park(u, out.Wake)
			}
		}
	}
	return issued
}

// NextPending returns the earliest pending wake-up cycle, or NoWake when no
// unit has one. Called between TickCycle and AdvanceTo it is the kernel's
// event-skip candidate; a coordinator over several kernels takes the
// minimum across them. The result can be at or before now when a unit was
// rescheduled at now after the cycle's drain — callers clamp to now+1
// exactly as Step does.
func (k *Kernel) NextPending() int64 {
	if at, ok := k.wheel.Next(); ok {
		return at
	}
	return NoWake
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
