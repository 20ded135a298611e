package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Memo is the program's one single-flight memo: the harness's simulations
// and miss-rate curves, the daemon's result store, its curve memo and its
// auto-tier model runs all compute through it. Its policy:
//
//   - the first caller for a key computes;
//   - concurrent callers wait, each bounded by its own context;
//   - a panic in the computation becomes that call's *PanicError and
//     releases the key;
//   - errors are never settled: the callers already waiting share the
//     error, and the next caller computes again. A waiter whose owner was
//     cancelled retries with its own live context, and may become the
//     owner.
//
// A success is settled — later callers get it without computing — unless
// Forget is set. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	// Forget drops a key as soon as its computation succeeds, so the memo
	// only coalesces computations in flight: for callers that keep their
	// values elsewhere (the result store's LRU and disk).
	Forget bool

	mu      sync.Mutex
	calls   map[K]*Call[V]
	running sync.WaitGroup // computations started by Go
}

// Call is one computation of a key, running or finished. Its value and
// error are set before done is closed and never written again.
type Call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Wait blocks until the computation has finished or ctx is done.
func (c *Call[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Do returns key's value, computing it with fn on this goroutine when no
// computation of key is running or settled, and otherwise waiting for that
// one, up to ctx.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	for {
		c, owner := m.claim(key)
		if owner {
			m.run(key, c, fn)
			return c.val, c.err
		}
		v, err := c.Wait(ctx)
		if ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue // the owner's caller went away; this one has not
		}
		return v, err
	}
}

// Go is Do that never blocks: it starts fn on its own goroutine when no
// computation of key is running or settled. It returns key's call and
// whether this call started it. Wait waits for the goroutines Go starts.
func (m *Memo[K, V]) Go(key K, fn func() (V, error)) (*Call[V], bool) {
	c, owner := m.claim(key)
	if owner {
		m.running.Add(1)
		go func() {
			defer m.running.Done()
			m.run(key, c, fn)
		}()
	}
	return c, owner
}

// Wait blocks until every computation started by Go has finished.
func (m *Memo[K, V]) Wait() { m.running.Wait() }

// Len reports how many keys the memo holds, running or settled.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.calls)
}

// claim returns key's call, creating it when there is none; owner reports
// that this caller created it and must run it.
func (m *Memo[K, V]) claim(key K) (c *Call[V], owner bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.calls[key]; ok {
		return c, false
	}
	if m.calls == nil {
		m.calls = make(map[K]*Call[V])
	}
	c = &Call[V]{done: make(chan struct{})}
	m.calls[key] = c
	return c, true
}

// run computes c, turning a panic into its error, then releases key unless
// the value is to be settled, and wakes the waiters.
func (m *Memo[K, V]) run(key K, c *Call[V], fn func() (V, error)) {
	c.val, c.err = guard(fmt.Sprint(key), fn)
	if c.err != nil || m.Forget {
		m.mu.Lock()
		delete(m.calls, key)
		m.mu.Unlock()
	}
	close(c.done)
}
