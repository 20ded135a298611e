package parallel

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunVisitsEveryShardEveryPhase checks the lockstep contract: each of a
// sequence of phases runs fn exactly once per shard, and writes made by the
// shards in phase k are visible to the coordinator (and to every shard in
// phase k+1) — the visibility the sharded run loop's serial merge sections
// depend on.
func TestRunVisitsEveryShardEveryPhase(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		p := NewPool(n)
		// Ping-pong stamp arrays: each phase writes cur and reads prev (the
		// previous phase's writes), so cross-phase visibility is exercised
		// without same-phase read/write overlap.
		prev, cur := make([]int, n), make([]int, n)
		const phases = 200
		for phase := 1; phase <= phases; phase++ {
			p.Run(func(shard int) {
				for s := 0; s < n; s++ {
					if prev[s] != phase-1 {
						panic("stale phase stamp")
					}
				}
				cur[shard] = phase
			})
			for s := 0; s < n; s++ {
				if cur[s] != phase {
					t.Fatalf("n=%d phase %d: shard %d stamp %d", n, phase, s, cur[s])
				}
			}
			prev, cur = cur, prev
		}
		p.Close()
		p.Close() // idempotent
	}
}

// goid returns the calling goroutine's id, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestShardZeroRunsOnCaller pins the fork-join shape: fn(0) executes on the
// goroutine that called Run, every other shard on a goroutine of its own
// that it keeps from phase to phase, and the pool occupies n-1 goroutines,
// not n or n+1.
func TestShardZeroRunsOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(3)
	defer p.Close()
	if got := runtime.NumGoroutine() - before; got != 2 {
		t.Fatalf("NewPool(3) started %d goroutines, want 2", got)
	}
	var first, second [3]string
	p.Run(func(shard int) { first[shard] = goid() })
	p.Run(func(shard int) { second[shard] = goid() })
	if first != second {
		t.Fatalf("shards moved between goroutines: %v then %v", first, second)
	}
	if caller := goid(); first[0] != caller || first[1] == caller || first[2] == caller || first[1] == first[2] {
		t.Fatalf("caller is goroutine %s, shards ran on %v", caller, first)
	}
}

// runCounted drives a pool for the given number of phases and checks fn ran
// exactly once per shard per phase.
func runCounted(t *testing.T, p *Pool, phases int) {
	t.Helper()
	n := p.Size()
	counts := make([]int, n*16) // 16 ints apart: shards never share a cache line
	fn := func(shard int) { counts[shard*16]++ }
	for i := 0; i < phases; i++ {
		p.Run(fn)
	}
	for s := 0; s < n; s++ {
		if counts[s*16] != phases {
			t.Errorf("shard %d ran %d times over %d phases", s, counts[s*16], phases)
		}
	}
}

// ladderBound is the wall-clock allowance for 10^5 phases on the slow paths:
// three to four orders of magnitude above what they take (tens to hundreds
// of milliseconds), so it trips only on a lost wake-up or a spin that
// starves its peer for whole preemption slices, not on a loaded host. The
// race detector gets proportionally more.
const ladderBound = 2 * time.Minute

// TestWaitLadderOneProc runs 4 shards on one processor: no waiter may spin
// (the peer it waits for needs the processor), so every phase goes through
// the yield stage, and idle workers through the park stage.
func TestWaitLadderOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := NewPool(4)
	defer p.Close()
	start := time.Now()
	runCounted(t, p, 100000)
	if p.rel.spins != 0 {
		t.Fatalf("spin budget %d with 4 shards on 1 processor, want 0", p.rel.spins)
	}
	if d := time.Since(start); d > ladderBound {
		t.Fatalf("10^5 phases at GOMAXPROCS=1 took %v", d)
	}
	// Let the workers climb to the park stage, then check the wake path.
	for i := 0; i < 4*yieldBudget; i++ {
		runtime.Gosched()
	}
	runCounted(t, p, 1000)
}

// TestWaitLadderOversubscribed runs two 2-shard pools concurrently on two
// processors — the shape of two sharded simulations inside one gpuscaled or
// one `paperbench -parallel 2 -shards 2`. Each pool alone would be allowed
// to spin; four participants on two processors are not.
func TestWaitLadderOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	alone := NewPool(2)
	alone.Run(func(int) {})
	if alone.rel.spins != spinBudget {
		t.Errorf("spin budget %d with 2 shards on 2 processors, want %d", alone.rel.spins, spinBudget)
	}
	alone.Close()
	start := time.Now()
	var wg, open, done sync.WaitGroup
	open.Add(2)
	done.Add(2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewPool(2)
			defer p.Close()
			open.Done()
			open.Wait() // both pools exist before either runs a phase...
			runCounted(t, p, 100000)
			if p.rel.spins != 0 {
				t.Errorf("spin budget %d with 4 participants on 2 processors, want 0", p.rel.spins)
			}
			done.Done()
			done.Wait() // ...and until both have run their last
		}()
	}
	wg.Wait()
	if d := time.Since(start); d > ladderBound {
		t.Fatalf("2 x 10^5 phases on two concurrent pools took %v", d)
	}
}

// TestParkedWorkersWake: a pool left alone long enough for every waiter to
// park must resume on the next Run, and a slow shard 0 must find the
// workers' arrivals waiting (the caller-side park is exercised by a slow
// worker instead).
func TestParkedWorkersWake(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for round := 0; round < 3; round++ {
		time.Sleep(20 * time.Millisecond) // workers: spin -> yield -> park
		ran := make([]bool, 3)
		p.Run(func(shard int) {
			if shard == round {
				time.Sleep(20 * time.Millisecond) // the others wait: caller parks when round != 0
			}
			ran[shard] = true
		})
		for s, ok := range ran {
			if !ok {
				t.Fatalf("round %d: shard %d did not run", round, s)
			}
		}
	}
}

// TestPanicPropagation: a panicking shard must not strand the others, Run
// must re-panic with the lowest shard's value, and the pool must stay usable
// for subsequent phases. RunInline must behave the same, message for
// message up to the stack trace.
func TestPanicPropagation(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	caught := func(entry func(func(int))) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		entry(func(shard int) {
			if shard == 1 || shard == 3 {
				panic("boom")
			}
		})
		return ""
	}
	head := func(msg string) string { return strings.SplitN(msg, "\n", 2)[0] }
	forked := caught(p.Run)
	if !strings.Contains(forked, "shard 1 panicked: boom") {
		t.Fatalf("Run panic = %q, want lowest-shard panic (shard 1)", forked)
	}
	if inline := caught(p.RunInline); head(inline) != head(forked) {
		t.Fatalf("RunInline panic = %q, Run's = %q", head(inline), head(forked))
	}
	// The pool recovers: the next phase runs cleanly on all shards, by
	// either entry.
	for _, entry := range []func(func(int)){p.Run, p.RunInline} {
		ran := make([]bool, 4)
		entry(func(shard int) { ran[shard] = true })
		for s, ok := range ran {
			if !ok {
				t.Fatalf("shard %d did not run after a panic phase", s)
			}
		}
	}
}

// TestRunInline pins the inline entry's shape: every shard runs on the
// calling goroutine in ascending order, and a forked Run after a long
// inline stretch — long enough for the worker to park — wakes it. Close
// then leaves no goroutine behind.
func TestRunInline(t *testing.T) {
	before := settledGoroutines(t)
	p := NewPool(3)
	var order []int
	caller := goid()
	p.RunInline(func(shard int) {
		if g := goid(); g != caller {
			t.Errorf("shard %d ran on goroutine %s, caller is %s", shard, g, caller)
		}
		order = append(order, shard)
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("RunInline visited shards %v, want [0 1 2]", order)
	}
	p.Run(func(int) {}) // the workers wait for the next fork from here
	deadline := time.Now().Add(ladderBound)
	for !p.slots[1].parked.Load() || !p.slots[2].parked.Load() {
		if time.Now().After(deadline) {
			t.Fatal("workers never parked through an inline stretch")
		}
		p.RunInline(func(int) {})
		runtime.Gosched()
	}
	runCounted(t, p, 1000)
	p.Close()
	if after := settledGoroutines(t); after > before {
		t.Fatalf("%d goroutines after Close, %d before NewPool", after, before)
	}
}

// TestCallerPanicJoinsWorkers: a panic in fn(0), on the calling goroutine,
// must still wait for every worker to finish the phase before Run re-panics
// (with shard 0's value: it is the lowest), and Close must leave no
// goroutine behind.
func TestCallerPanicJoinsWorkers(t *testing.T) {
	before := settledGoroutines(t)
	p := NewPool(4)
	finished := make([]bool, 4)
	caught := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		p.Run(func(shard int) {
			if shard == 0 {
				panic("caller boom")
			}
			time.Sleep(10 * time.Millisecond) // still running when fn(0) has panicked
			finished[shard] = true
			if shard == 2 {
				panic("worker boom")
			}
		})
		return ""
	}()
	if !strings.Contains(caught, "shard 0 panicked: caller boom") {
		t.Fatalf("Run panic = %q, want shard 0's", caught)
	}
	for s := 1; s < 4; s++ {
		if !finished[s] {
			t.Fatalf("Run re-panicked before worker %d finished its phase", s)
		}
	}
	p.Close()
	if after := settledGoroutines(t); after > before {
		t.Fatalf("%d goroutines after Close, %d before NewPool", after, before)
	}
}

// settledGoroutines waits up to a few seconds for every pool worker — this
// test's or an earlier one's — to be gone, then returns the goroutine count:
// a worker's deferred wg.Done lets Close return a moment before the
// goroutine itself exits. Callers compare counts with >, because an earlier
// test's own goroutine may still be exiting when the baseline is taken.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for strings.Contains(string(buf[:runtime.Stack(buf, true)]), "parallel.(*Pool).worker") {
		if time.Now().After(deadline) {
			t.Fatal("a pool worker outlived Close")
		}
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestCloseWaitsForWorkers: Close returns only once the workers are gone,
// whichever stage of the ladder they were waiting in.
func TestCloseWaitsForWorkers(t *testing.T) {
	before := settledGoroutines(t)
	for _, idle := range []time.Duration{0, 20 * time.Millisecond} {
		p := NewPool(5)
		p.Run(func(int) {})
		time.Sleep(idle)
		p.Close()
		p.Close()
		if after := settledGoroutines(t); after > before {
			t.Fatalf("idle %v: %d goroutines after Close, %d before NewPool", idle, after, before)
		}
	}
}

// goroutineLabels returns the pprof label line of the calling goroutine's
// entry in the debug=1 goroutine profile — the entry whose stack contains
// marker — or "" if it has none.
func goroutineLabels(t *testing.T, marker string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	for _, entry := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(entry, marker) {
			continue
		}
		for _, line := range strings.Split(entry, "\n") {
			if strings.HasPrefix(line, "# labels:") {
				return line
			}
		}
		return ""
	}
	t.Fatalf("no goroutine with %s on its stack in the profile", marker)
	return ""
}

// TestShardLabels: every shard's phase function runs under its shard and sim
// labels on top of the caller's own — shard 0's on the calling goroutine —
// and the caller's labels come back when Run returns.
func TestShardLabels(t *testing.T) {
	pprof.Do(context.Background(), pprof.Labels("request", "r1"), func(ctx context.Context) {
		p := NewPoolLabeled(ctx, 2, "gpu")
		defer p.Close()
		during := make([]string, 2)
		p.Run(func(shard int) {
			if shard == 0 {
				during[0] = labelsOfShardZero(t)
			} else {
				during[1] = labelsOfWorker(t)
			}
		})
		for shard, got := range during {
			for _, want := range []string{`"shard":"` + strconv.Itoa(shard) + `"`, `"sim":"gpu"`, `"request":"r1"`} {
				if !strings.Contains(got, want) {
					t.Errorf("shard %d labels during Run = %q, missing %s", shard, got, want)
				}
			}
		}
		after := labelsAfterRun(t)
		if strings.Contains(after, "shard") || !strings.Contains(after, `"request":"r1"`) {
			t.Errorf("caller labels after Run = %q, want only the caller's own", after)
		}
	})
}

// Distinct, non-inlined frames so goroutineLabels can find each goroutine by
// a function name on its stack.
//
//go:noinline
func labelsOfShardZero(t *testing.T) string { return goroutineLabels(t, "labelsOfShardZero") }

//go:noinline
func labelsOfWorker(t *testing.T) string { return goroutineLabels(t, "labelsOfWorker") }

//go:noinline
func labelsAfterRun(t *testing.T) string { return goroutineLabels(t, "labelsAfterRun") }

// TestPoolRunNoAllocs: a phase costs no allocation once the phase function
// is built, forked or inline — the sharded run loops call Run and RunInline
// millions of times (`make noalloc`; AllocsPerRun is unreliable under
// -race).
func TestPoolRunNoAllocs(t *testing.T) {
	for _, labeled := range []bool{false, true} {
		var p *Pool
		if labeled {
			p = NewPoolLabeled(context.Background(), 2, "gpu")
		} else {
			p = NewPool(2)
		}
		fn := func(int) {}
		if a := testing.AllocsPerRun(1000, func() { p.Run(fn) }); a != 0 {
			t.Errorf("labeled=%v: Pool.Run allocates %.1f times per phase, want 0", labeled, a)
		}
		if a := testing.AllocsPerRun(1000, func() { p.RunInline(fn) }); a != 0 {
			t.Errorf("labeled=%v: Pool.RunInline allocates %.1f times per phase, want 0", labeled, a)
		}
		p.Close()
	}
}

// TestRunAfterClosePanics pins the misuse guard on both entries.
func TestRunAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	for name, entry := range map[string]func(func(int)){"Run": p.Run, "RunInline": p.RunInline} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			entry(func(int) {})
		}()
	}
}

// TestPoolSizeValidation pins the constructor guard.
func TestPoolSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

// BenchmarkPoolRun is the unit cost behind the bench's
// parallel.shard2_vs_seq: one fork-join with an empty phase function, i.e.
// the synchronisation a sharded run loop pays per phase on top of its ticks.
// ns/op is ns/phase. Compare with the host's cross-core round trip.
func BenchmarkPoolRun(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run("shards="+strconv.Itoa(n), func(b *testing.B) {
			p := NewPool(n)
			defer p.Close()
			fn := func(int) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(fn)
			}
		})
	}
}

// BenchmarkCrossCoreRoundTrip is the yardstick for BenchmarkPoolRun: two
// goroutines bounce a pair of padded words with nothing else in the loop, so
// ns/op is this host's cost of one cache line going to another core and one
// coming back — the floor under any fork-join.
func BenchmarkCrossCoreRoundTrip(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs two processors: the bare spin never yields")
	}
	var words [2]slot // ping in [0], pong in [1], 128 bytes apart
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= uint64(b.N); i++ {
			for words[0].arrived.Load() != i {
			}
			words[1].arrived.Store(i)
		}
	}()
	b.ResetTimer()
	for i := uint64(1); i <= uint64(b.N); i++ {
		words[0].arrived.Store(i)
		for words[1].arrived.Load() != i {
		}
	}
	<-done
}
