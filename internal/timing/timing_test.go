package timing

import (
	"fmt"
	"math/rand"
	"testing"

	"gpuscale/internal/sched"
)

// step scripts one tick of one unit: the wake-up distance it reports
// (<= 0 means go idle / NoWake), whether the tick "issues", and which units
// it launches (they are scheduled at the next visited cycle, the way a CTA
// launch lands in the simulators' run loops).
type step struct {
	delta  int64
	issued bool
	launch []int
}

type tick struct {
	cycle int64
	unit  int
}

// scriptDriver drives a Kernel from a per-unit script and records the tick
// sequence and the visited cycles.
type scriptDriver struct {
	script   [][]step
	pos      []int
	ticks    []tick
	visited  int64 // CycleEnd calls
	launches []int // collected during Step, applied by the harness after
}

func newScriptDriver(script [][]step) *scriptDriver {
	return &scriptDriver{script: script, pos: make([]int, len(script))}
}

func (d *scriptDriver) TickUnit(now int64, u int) Outcome {
	d.ticks = append(d.ticks, tick{now, u})
	out := Outcome{Wake: NoWake}
	if d.pos[u] < len(d.script[u]) {
		st := d.script[u][d.pos[u]]
		d.pos[u]++
		d.launches = append(d.launches, st.launch...)
		out.Issued = st.issued
		if st.delta > 0 {
			out.Wake = now + st.delta
		}
	}
	return out
}

func (d *scriptDriver) CycleEnd(now int64) { d.visited++ }

// runKernel plays a script through a Kernel with the given horizon: all
// units seeded at cycle 0 (the initial CTA fill), launches applied between
// Steps at the advanced cycle (the way fillCTAs runs at the top of the
// simulators' outer loops).
func runKernel(t *testing.T, script [][]step, horizon int, noSkip bool) (*scriptDriver, *Kernel) {
	t.Helper()
	d := newScriptDriver(script)
	k := MustNew(Config{Units: len(script), Horizon: horizon, NoSkip: noSkip}, d)
	for u := range script {
		k.ScheduleNow(u)
	}
	const maxSteps = 1 << 22
	for i := 0; ; i++ {
		if i > maxSteps {
			t.Fatalf("kernel did not drain after %d steps (horizon %d)", maxSteps, horizon)
		}
		for _, u := range d.launches {
			k.ScheduleNow(u)
		}
		d.launches = d.launches[:0]
		if !k.Pending() {
			break
		}
		k.Step()
	}
	return d, k
}

// runReference replays the same script against a plain sched.Heap with the
// event-loop semantics the kernel must reproduce: pop everything due at the
// visited cycle in (cycle, unit) order, advance by one when anything
// issued, otherwise jump to the heap's minimum.
func runReference(script [][]step) (ticks []tick, finalNow int64, visited int64) {
	n := len(script)
	h := sched.NewHeap(n)
	pos := make([]int, n)
	for u := 0; u < n; u++ {
		h.Set(u, 0)
	}
	var launches []int
	now := int64(0)
	for {
		for _, u := range launches {
			h.Set(u, now)
		}
		launches = launches[:0]
		if h.Len() == 0 {
			break
		}
		visited++
		issued := false
		for h.Len() > 0 && h.MinKey() <= now {
			u, _ := h.Pop()
			ticks = append(ticks, tick{now, u})
			if pos[u] < len(script[u]) {
				st := script[u][pos[u]]
				pos[u]++
				launches = append(launches, st.launch...)
				if st.issued {
					issued = true
				}
				if st.delta > 0 {
					h.Set(u, now+st.delta)
				}
			}
		}
		switch {
		case issued:
			now++
		case h.Len() > 0:
			if mk := h.MinKey(); mk > now+1 {
				now = mk
			} else {
				now++
			}
		default:
			now++ // matches the kernel's default advance on the last cycle
		}
	}
	return ticks, now, visited
}

func compareRuns(t *testing.T, d *scriptDriver, k *Kernel, want []tick, wantNow int64) {
	t.Helper()
	if len(d.ticks) != len(want) {
		t.Fatalf("tick count: kernel %d, reference %d", len(d.ticks), len(want))
	}
	for i := range want {
		if d.ticks[i] != want[i] {
			t.Fatalf("tick %d: kernel (cycle %d, unit %d), reference (cycle %d, unit %d)",
				i, d.ticks[i].cycle, d.ticks[i].unit, want[i].cycle, want[i].unit)
		}
	}
	if k.Now() != wantNow {
		t.Fatalf("final cycle: kernel %d, reference %d", k.Now(), wantNow)
	}
	// Every visited cycle advances the clock by 1 + its skip, so skipped
	// cycles and visited cycles partition the run exactly.
	if k.Skipped() != k.Now()-d.visited {
		t.Fatalf("skipped %d + visited %d != final now %d", k.Skipped(), d.visited, k.Now())
	}
}

func cloneScript(script [][]step) [][]step {
	out := make([][]step, len(script))
	for u := range script {
		out[u] = append([]step(nil), script[u]...)
	}
	return out
}

// TestWheelMatchesHeapReference is the due-wheel property test: arbitrary
// wake schedules — horizon-boundary distances, duplicate cycles, idle
// units relaunched mid-run — must produce the identical tick sequence as a
// plain sched.Heap, for every horizon including the degenerate heap-only
// horizon 1 and multi-word unit counts.
func TestWheelMatchesHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for _, horizon := range []int{1, 2, 8, 64} {
		for _, n := range []int{1, 5, 64, 130} {
			for trial := 0; trial < 4; trial++ {
				h64 := int64(horizon)
				// Boundary-heavy delta palette: next cycle, inside the
				// wheel, one each side of the horizon, exactly the horizon
				// (must take the heap — its slot aliases the cycle being
				// drained), and far beyond it.
				palette := []int64{1, 1, 2, 3, h64 - 1, h64, h64 + 1, 2 * h64, 3*h64 + 7}
				script := make([][]step, n)
				for u := range script {
					steps := 8 + rng.Intn(24)
					for j := 0; j < steps; j++ {
						st := step{issued: rng.Intn(2) == 0}
						switch rng.Intn(10) {
						case 0:
							st.delta = 0 // go idle; only a launch revives it
						case 1, 2:
							st.delta = 1 + rng.Int63n(3*h64)
						default:
							st.delta = palette[rng.Intn(len(palette))]
						}
						if st.delta < 1 && rng.Intn(4) != 0 {
							st.delta = 1
						}
						if rng.Intn(12) == 0 {
							st.launch = []int{rng.Intn(n)}
							// A launch-triggering tick always issues, as in
							// the simulators (capacity frees on an issuing
							// retirement) — this is what makes NoSkip visit
							// the launch cycle at the same point.
							st.issued = true
						}
						script[u] = append(script[u], st)
					}
				}
				wantTicks, wantNow, _ := runReference(cloneScript(script))
				d, k := runKernel(t, cloneScript(script), horizon, false)
				compareRuns(t, d, k, wantTicks, wantNow)

				// NoSkip visits every cycle but must tick the same
				// sequence with nothing skipped.
				dn, kn := runKernel(t, cloneScript(script), horizon, true)
				if len(dn.ticks) != len(wantTicks) {
					t.Fatalf("noskip tick count: %d want %d", len(dn.ticks), len(wantTicks))
				}
				for i := range wantTicks {
					if dn.ticks[i] != wantTicks[i] {
						t.Fatalf("noskip tick %d diverged", i)
					}
				}
				if kn.Skipped() != 0 {
					t.Fatalf("noskip skipped %d cycles", kn.Skipped())
				}
				if dn.visited != kn.Now() {
					t.Fatalf("noskip visited %d cycles, final now %d", dn.visited, kn.Now())
				}
			}
		}
	}
}

// TestHorizonBoundary pins the wheel/heap hand-off deterministically: a
// wake exactly one horizon away must take the heap (its slot aliases the
// cycle being drained), one cycle closer must take the wheel, and both must
// tick at exactly their scheduled cycle.
func TestHorizonBoundary(t *testing.T) {
	const horizon = 4
	script := [][]step{
		{{delta: horizon}, {delta: horizon - 1}, {delta: horizon + 1}, {delta: 0}},
		{{delta: 1}, {delta: horizon}, {delta: 2 * horizon}, {delta: 0}},
	}
	wantTicks, wantNow, _ := runReference(cloneScript(script))
	d, k := runKernel(t, cloneScript(script), horizon, false)
	compareRuns(t, d, k, wantTicks, wantNow)
	// Pin the absolute cycles, not just agreement with the reference: both
	// seeded at 0, unit 1 hops 1→5→13 (exact-horizon then beyond-horizon
	// wakes), unit 0 hops 4→7→12 (exact horizon, then one inside, then one
	// beyond).
	want := []tick{{0, 0}, {0, 1}, {1, 1}, {4, 0}, {5, 1}, {7, 0}, {12, 0}, {13, 1}}
	if len(d.ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", d.ticks, want)
	}
	for i := range want {
		if d.ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", d.ticks, want)
		}
	}
}

// TestScheduleNowReplacesPendingWake exercises the removal path: launching
// a unit that already has a far (heap) or near (wheel) pending wake must
// tick it at the launch cycle only, and the stale entry must neither tick
// again nor stop the clock at an empty cycle.
func TestScheduleNowReplacesPendingWake(t *testing.T) {
	for _, horizon := range []int{1, 8, 64} {
		// Unit 0 reschedules far ahead but unit 1's tick at cycle 1
		// launches it immediately; the stale wake at cycle 100 (heap) or 5
		// (wheel) must vanish.
		for _, staleDelta := range []int64{5, 100} {
			script := [][]step{
				{{delta: staleDelta}, {delta: 0}},
				{{delta: 1}, {delta: 0, launch: []int{0}}},
			}
			wantTicks, wantNow, _ := runReference(cloneScript(script))
			d, k := runKernel(t, cloneScript(script), horizon, false)
			compareRuns(t, d, k, wantTicks, wantNow)
			if k.Pending() {
				t.Fatalf("horizon %d staleDelta %d: kernel still pending after drain", horizon, staleDelta)
			}
		}
	}
}

// runKernelPhases replays a script through the decomposed phase API the way
// the sharded coordinator does — TickCycle, its own end of the cycle, then
// NextPending / AdvanceTo with the caller making Step's advance decision —
// so any drift between Step and its pieces fails the property test below.
// Before each TickCycle it checks that Due predicts exactly how many units
// will tick.
func runKernelPhases(t *testing.T, script [][]step, horizon int) (*scriptDriver, *Kernel) {
	t.Helper()
	d := newScriptDriver(script)
	k := MustNew(Config{Units: len(script), Horizon: horizon}, d)
	for u := range script {
		k.ScheduleNow(u)
	}
	const maxSteps = 1 << 22
	for i := 0; ; i++ {
		if i > maxSteps {
			t.Fatalf("phase kernel did not drain after %d steps (horizon %d)", maxSteps, horizon)
		}
		for _, u := range d.launches {
			k.ScheduleNow(u)
		}
		d.launches = d.launches[:0]
		if !k.Pending() {
			break
		}
		due, before := k.Due(), len(d.ticks)
		issued := k.TickCycle()
		if ticked := len(d.ticks) - before; ticked != due {
			t.Fatalf("cycle %d: Due() = %d, TickCycle ticked %d units", k.Now(), due, ticked)
		}
		d.visited++ // the coordinator's end of the cycle
		next := k.NextPending()
		if issued || next < k.Now()+1 {
			next = k.Now() + 1
		}
		k.AdvanceTo(next)
	}
	return d, k
}

// TestPhaseAPIMatchesStep is the decomposition property test: driving the
// kernel through TickCycle/NextPending/AdvanceTo must reproduce Step's tick
// sequence, final cycle and skip accounting on arbitrary schedules.
func TestPhaseAPIMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfa5e))
	for _, horizon := range []int{1, 8, 64} {
		for _, n := range []int{1, 7, 70} {
			for trial := 0; trial < 4; trial++ {
				h64 := int64(horizon)
				script := make([][]step, n)
				for u := range script {
					steps := 4 + rng.Intn(20)
					for j := 0; j < steps; j++ {
						st := step{issued: rng.Intn(2) == 0, delta: 1 + rng.Int63n(3*h64)}
						if rng.Intn(10) == 0 {
							st.delta = 0
						}
						if rng.Intn(12) == 0 {
							st.launch = []int{rng.Intn(n)}
							st.issued = true
						}
						script[u] = append(script[u], st)
					}
				}
				wantTicks, wantNow, _ := runReference(cloneScript(script))
				d, k := runKernelPhases(t, cloneScript(script), horizon)
				compareRuns(t, d, k, wantTicks, wantNow)
			}
		}
	}
}

// TestRescheduleReplacesPendingWake pins the between-cycles repair path the
// sharded loop's deferred-memory fix-ups use: Reschedule must replace a
// pending wake wherever it lives (wheel or heap), revive an idle unit, be
// drainable at the current cycle, and leave WakeAt telling the truth.
func TestRescheduleReplacesPendingWake(t *testing.T) {
	for _, horizon := range []int{1, 8, 64} {
		for _, staleDelta := range []int64{5, 100} { // wheel entry, heap entry
			// The seed tick issues so Step advances to cycle 1 instead of
			// event-skipping straight to the stale wake.
			d := newScriptDriver([][]step{{{delta: staleDelta, issued: true}}})
			k := MustNew(Config{Units: 1, Horizon: horizon}, d)
			k.ScheduleNow(0)
			k.Step() // ticks at 0, re-arms at staleDelta
			if got := k.WakeAt(0); got != staleDelta {
				t.Fatalf("horizon %d: WakeAt after tick = %d, want %d", horizon, got, staleDelta)
			}
			// Replace the stale entry with a nearer wake; the stale one must
			// neither tick nor stop the skip scan.
			k.Reschedule(0, 3)
			if got := k.WakeAt(0); got != 3 {
				t.Fatalf("horizon %d: WakeAt after Reschedule = %d, want 3", horizon, got)
			}
			for k.Pending() {
				k.Step()
			}
			wantTicks := []tick{{0, 0}, {3, 0}}
			if len(d.ticks) != len(wantTicks) || d.ticks[1] != wantTicks[1] {
				t.Fatalf("horizon %d staleDelta %d: ticks %v, want %v", horizon, staleDelta, d.ticks, wantTicks)
			}
			if k.Pending() {
				t.Fatalf("horizon %d staleDelta %d: stale wake survived Reschedule", horizon, staleDelta)
			}
			// Reschedule from idle revives the unit (WakeAt == NoWake first).
			if k.WakeAt(0) != NoWake {
				t.Fatalf("unit not idle after drain")
			}
			k.Reschedule(0, k.Now())
			if issued := k.TickCycle(); issued {
				t.Fatalf("scripted unit issued unexpectedly")
			}
			if len(d.ticks) != 3 || d.ticks[2].cycle != k.Now() {
				t.Fatalf("Reschedule at now did not tick this cycle: ticks %v, now %d", d.ticks, k.Now())
			}
			k.AdvanceTo(k.Now() + 1)
		}
	}
}

// TestConfigValidation covers the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	d := newScriptDriver([][]step{{}})
	if _, err := New(Config{Units: 0}, d); err == nil {
		t.Error("want error for zero units")
	}
	if _, err := New(Config{Units: 1, Horizon: 3}, d); err == nil {
		t.Error("want error for non-power-of-two horizon")
	}
	if _, err := New(Config{Units: 1, Horizon: 128}, d); err == nil {
		t.Error("want error for horizon beyond 64")
	}
	if _, err := New(Config{Units: 1}, nil); err == nil {
		t.Error("want error for nil driver")
	}
	if k, err := New(Config{Units: 1}, d); err != nil || k.horizon != DefaultHorizon {
		t.Errorf("default horizon: kernel %+v, err %v", k, err)
	}
}

// benchDistances is the wake-up distance cycle of benchDriver: mostly near
// (inside the default 64-cycle wheel), one in four a DRAM-length round
// trip through the heap.
var benchDistances = [8]int64{1, 4, 1, 30, 2, 300, 12, 450}

// benchDriver re-arms every unit it ticks at a distance from
// benchDistances and issues on every other tick, with no work behind it.
type benchDriver struct{ ticks int }

func (d *benchDriver) TickUnit(now int64, u int) Outcome {
	d.ticks++
	return Outcome{Wake: now + benchDistances[(d.ticks+u)&7], Issued: d.ticks&1 == 0}
}

func (d *benchDriver) CycleEnd(int64) {}

// BenchmarkKernelStep measures one Step — drain the due units, tick them,
// re-arm them in the wheel or the heap, advance — of a kernel whose units
// wake at mixed near and far distances. ticks/step reports how many unit
// ticks one Step dispatched on average, to compare per tick.
func BenchmarkKernelStep(b *testing.B) {
	for _, units := range []int{16, 128} {
		b.Run(fmt.Sprintf("%dunits", units), func(b *testing.B) {
			d := &benchDriver{}
			k := MustNew(Config{Units: units}, d)
			for u := 0; u < units; u++ {
				k.ScheduleNow(u)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
			b.ReportMetric(float64(d.ticks)/float64(b.N), "ticks/step")
		})
	}
}
