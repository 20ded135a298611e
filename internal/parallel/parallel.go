// Package parallel is the shard-runner pool behind the cycle simulator's
// sharded execution mode (internal/gpu with Options.Shards > 1). It owns exactly one thing: a fork-join over a fixed
// set of shards. Run(fn) executes fn(shard) once per shard — shard 0 on the
// calling goroutine, shards 1..n-1 on worker goroutines pinned to their
// shard id for the pool's lifetime — and returns when every shard has
// finished. That fork and that join are the two synchronisation points the
// deterministic sharded run loops are built on.
//
// # Determinism contract
//
// The pool adds no ordering of its own and must not be asked to: worker i
// always runs fn(i), the caller always runs fn(0), and Run returns only
// after all shards' writes are visible to the caller (the release and
// arrival words below are sync/atomic values and carry the happens-before
// edges). Everything order-sensitive — applying cross-shard effects in
// ascending shard id, merging counters, deciding the next cycle — belongs in
// the caller's serial sections between Run calls. A phase function may touch
// only state owned by its shard plus read-only shared state; the race gate
// (`make race`) checks that discipline on the real run loops.
//
// # Fork-join protocol
//
// One phase costs one cross-core round trip:
//
//   - Fork: the caller stores the phase function and bumps the epoch word.
//     Workers wait on that one word; it sits alone on cache lines only the
//     caller writes.
//   - Join: each worker stores the epoch it just finished into its own
//     arrival word (one padded slot per worker, so arrivals never share a
//     line); the caller, having run fn(0) in the meantime, waits for every
//     arrival word to reach the epoch.
//
// The caller is a participant, so a pool of n shards occupies n goroutines,
// not n+1: on a host with exactly n cores nobody has to yield for the phase
// to make progress.
//
// # The wait ladder
//
// Both waits climb the same three stages, chosen from what the code can
// observe rather than from an option:
//
//  1. Spin on the word, but only while the shards of every open pool in the
//     process fit within GOMAXPROCS (checked by Run before each fork) —
//     otherwise the peer being waited for may need this very processor,
//     and spinning only delays it.
//  2. Yield: runtime.Gosched between polls, so a peer (or another pool's
//     goroutine, when several sharded simulations share the process) that
//     is runnable but not running gets the processor. This is the stage
//     that keeps a 1-core CI runner and an oversubscribed daemon moving.
//  3. Park: after yieldBudget fruitless yields the waiter publishes a parked
//     flag, re-checks the word, and blocks on a one-token channel; whoever
//     later writes the word claims the flag and sends the token. A pool
//     whose coordinator is busy elsewhere (or blocked) therefore costs no
//     CPU, and a long fn(0) does not leave n-1 goroutines spinning.
//
// How long a waiter has waited — spins, then yields — is the only signal
// that moves it up the ladder, and every new wait starts at the bottom, so
// a steady cycle-by-cycle run stays in stage 1 and pays only the cache-line
// transfer.
//
// A panic in a phase function, shard 0's included, is captured; the phase
// still joins every worker (nobody is stranded mid-phase), and Run re-panics
// with the lowest shard's panic value — deterministic even when several
// shards fail in the same phase.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// spinBudget is how many times a waiter polls before its first yield,
	// when spinning is allowed at all. A poll is a third to half a
	// nanosecond, so the budget is 10-15 us: it covers the serial section
	// between two phases of a sharded run loop (merge, replay, advance) and,
	// more to the point, several Gosched round trips. A budget shorter than
	// one round trip (1-3 us here, with the futex wake of an idle processor)
	// makes yields contagious — the yielder answers its peer late, the peer's
	// spin runs out, it yields and answers late in turn — and the pool settles
	// at ~3.5 us a phase instead of ~0.4 (measured at 1<<12). The upper side
	// bounds how long a waiter holds a processor that a descheduled peer
	// needs; the Go scheduler alone would let it spin for a 10 ms slice.
	spinBudget = 1 << 15
	// yieldBudget is how many Gosched calls a waiter makes before parking.
	// Parking and waking cost microseconds each, so it should happen only
	// when the word is genuinely not about to change.
	yieldBudget = 1 << 7
)

// participants counts the shards of every open pool in the process. Spinning
// pays only while each of them can have a processor to itself, so Run
// compares it with GOMAXPROCS before every fork: one more sharded simulation
// starting in the same gpuscaled or `paperbench -parallel` switches every
// pool to yielding within a phase, and its Close switches them back.
var participants atomic.Int64

// waiter is the park stage's handshake for one waiting goroutine. parked is
// written by the waiter (set) and by whoever wakes it (claimed); a token is
// sent on wake exactly once per successful claim, so wake never holds more
// than one token and a send never blocks.
type waiter struct {
	parked atomic.Bool
	wake   chan struct{}
}

// wakeIfParked is called after writing a word the waiter may be parked on.
func (w *waiter) wakeIfParked() {
	if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
		w.wake <- struct{}{}
	}
}

// await blocks until *word == target, climbing the wait ladder. The flag
// store / word load here and the word store / flag load in the writer are
// all sequentially consistent atomics, so at least one side sees the other:
// either the waiter notices the word and withdraws, or the writer notices
// the flag and sends the token.
func (w *waiter) await(word *atomic.Uint64, target uint64, spins int) {
	for i := 0; i < spins; i++ {
		if word.Load() == target {
			return
		}
	}
	for i := 0; i < yieldBudget; i++ {
		if word.Load() == target {
			return
		}
		runtime.Gosched()
	}
	for word.Load() != target {
		w.parked.Store(true)
		if word.Load() == target && w.parked.CompareAndSwap(true, false) {
			return // withdrew before any writer claimed the flag
		}
		<-w.wake
	}
}

// release is the caller-written line: the phase function, the epoch that
// publishes it, and the caller's own park handshake. Workers read it; only
// the caller (and a worker claiming the caller's parked flag) writes it. The
// padding keeps it off the lines of the fields around it.
type release struct {
	_       [128]byte
	fn      func(shard int)
	spins   int  // stage-1 budget for this phase's waits: spinBudget or 0
	closing bool // set by Close: the next fork sends the workers home
	epoch   atomic.Uint64
	caller  waiter
	_       [128]byte
}

// slot is one worker's line: the epoch it last finished and its park
// handshake. 128 bytes per slot puts neighbouring workers' words on
// different cache lines (and different adjacent-line prefetch pairs)
// whatever the slice's alignment.
type slot struct {
	arrived atomic.Uint64
	waiter
	_ [128 - unsafe.Sizeof(atomic.Uint64{}) - unsafe.Sizeof(waiter{})]byte
}

// shardPanic records a panic captured in a shard's phase function.
type shardPanic struct {
	val   any
	stack []byte
}

// Pool runs a phase function across a fixed set of shards in lockstep. Use
// NewPool or NewPoolLabeled; the zero value is unusable. A Pool is not safe
// for concurrent Run calls — it belongs to one coordinator goroutine, the way
// a sharded run loop owns one for the duration of a simulation.
type Pool struct {
	n      int
	procs  int64 // GOMAXPROCS when the pool was built
	rel    release
	slots  []slot       // slot i belongs to worker i; slot 0 is unused
	panics []shardPanic // shard i writes only entry i
	wg     sync.WaitGroup

	// Shard 0 runs on the caller: Run switches the calling goroutine to
	// shard0 for the phase and back to base afterwards. Both nil when the
	// pool is unlabeled.
	shard0 context.Context
	base   context.Context
}

// NewPool returns a pool of n shards (n >= 1) and starts its n-1 worker
// goroutines, which wait for Run or Close. No profiler labels are attached.
func NewPool(n int) *Pool {
	return newPool(nil, n, "")
}

// NewPoolLabeled is NewPool with runtime/pprof labels on every shard:
// "shard" carries the shard id and "sim" names the simulator kind driving
// the pool, on top of whatever labels ctx carries. Workers wear theirs for
// life; the calling goroutine wears shard 0's for the duration of each Run
// and gets ctx's labels back when Run returns, so ctx must be the context
// the caller's own labels came from (context.Background() if it has none).
// CPU profiles (-cpuprofile on the CLIs) then attribute samples per shard
// per simulator, waits included, which is how imbalance between shards is
// diagnosed.
func NewPoolLabeled(ctx context.Context, n int, sim string) *Pool {
	return newPool(ctx, n, sim)
}

func newPool(ctx context.Context, n int, sim string) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("parallel: pool size must be >= 1, got %d", n))
	}
	p := &Pool{n: n, procs: int64(runtime.GOMAXPROCS(0)), slots: make([]slot, n), panics: make([]shardPanic, n)}
	participants.Add(int64(n))
	p.rel.caller.wake = make(chan struct{}, 1)
	labels := func(shard int) context.Context { return nil }
	if ctx != nil {
		// Flatten ctx's labels onto a one-link context: Run switches labels
		// twice per phase, and SetGoroutineLabels walks the context chain.
		var kv []string
		pprof.ForLabels(ctx, func(k, v string) bool {
			kv = append(kv, k, v)
			return true
		})
		p.base = pprof.WithLabels(context.Background(), pprof.Labels(kv...))
		labels = func(shard int) context.Context {
			return pprof.WithLabels(p.base, pprof.Labels("shard", strconv.Itoa(shard), "sim", sim))
		}
		p.shard0 = labels(0)
	}
	p.wg.Add(n - 1)
	for i := 1; i < n; i++ {
		p.slots[i].wake = make(chan struct{}, 1)
		go p.worker(i, labels(i))
	}
	return p
}

// Size returns the number of shards.
func (p *Pool) Size() int { return p.n }

func (p *Pool) worker(shard int, labels context.Context) {
	defer p.wg.Done()
	if labels != nil {
		pprof.SetGoroutineLabels(labels)
	}
	s := &p.slots[shard]
	spins := 0 // until the first fork says otherwise
	for epoch := uint64(1); ; epoch++ {
		s.await(&p.rel.epoch, epoch, spins)
		if p.rel.closing {
			return
		}
		spins = p.rel.spins // for the wait after this phase
		p.runOne(shard)
		s.arrived.Store(epoch)
		p.rel.caller.wakeIfParked()
	}
}

// runOne executes the current phase function for one shard, capturing a
// panic so the shard still reaches the join.
func (p *Pool) runOne(shard int) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			p.panics[shard] = shardPanic{val: r, stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	p.rel.fn(shard)
}

// fork publishes the next epoch to the workers.
func (p *Pool) fork() uint64 {
	epoch := p.rel.epoch.Add(1)
	for i := 1; i < p.n; i++ {
		p.slots[i].wakeIfParked()
	}
	return epoch
}

// Run executes fn(shard) on every shard — fn(0) on the calling goroutine —
// and returns when all have finished. The caller's writes before Run are
// visible to every shard, and all shards' writes are visible to the caller
// after Run. If any shard's fn panicked, Run re-panics with the lowest
// shard's panic value after every worker has joined.
func (p *Pool) Run(fn func(shard int)) {
	if p.rel.closing {
		panic("parallel: Run on closed pool")
	}
	if p.shard0 != nil {
		pprof.SetGoroutineLabels(p.shard0)
	}
	p.rel.fn = fn
	p.rel.spins = 0
	if participants.Load() <= p.procs {
		p.rel.spins = spinBudget
	}
	epoch := p.fork()
	p.runOne(0)
	for i := 1; i < p.n; i++ {
		p.rel.caller.await(&p.slots[i].arrived, epoch, p.rel.spins)
	}
	p.rel.fn = nil
	if p.shard0 != nil {
		pprof.SetGoroutineLabels(p.base)
	}
	for i := range p.panics {
		if p.panics[i].val != nil {
			r := p.panics[i]
			for j := range p.panics {
				p.panics[j] = shardPanic{}
			}
			panic(fmt.Sprintf("parallel: shard %d panicked: %v\n%s", i, r.val, r.stack))
		}
	}
}

// Close releases the worker goroutines and returns once every one of them
// has exited. Idempotent; Run after Close panics.
func (p *Pool) Close() {
	if p.rel.closing {
		return
	}
	p.rel.closing = true
	p.fork()
	p.wg.Wait()
	participants.Add(-int64(p.n))
}
