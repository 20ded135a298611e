package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoSingleFlight: concurrent callers of one key compute once and
// share the value, which stays settled for later callers.
func TestMemoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := m.Do(context.Background(), "k", fn); v != 42 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	for m.Len() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if v, err := m.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("recomputed") }); v != 42 || err != nil {
		t.Errorf("settled Do = %d, %v", v, err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("%d computations across %d callers, want 1", n, callers)
	}
}

// TestMemoErrorsNotSettled: the callers waiting on a failed computation
// share its error, and the next caller computes again.
func TestMemoErrorsNotSettled(t *testing.T) {
	var m Memo[string, int]
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		owner <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := m.Do(context.Background(), "k", func() (int, error) { return 1, nil })
		waiter <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	close(release)
	if err := <-owner; !errors.Is(err, boom) {
		t.Errorf("owner error = %v", err)
	}
	if err := <-waiter; err != nil && !errors.Is(err, boom) {
		t.Errorf("waiter error = %v, want the owner's or none", err)
	}
	if v, err := m.Do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 && v != 1 || err != nil {
		t.Errorf("Do after the failure = %d, %v, want a fresh value", v, err)
	}
}

// TestMemoPanicReleasesKey: a panicking computation is that call's
// *PanicError, never a dead process or a stuck key.
func TestMemoPanicReleasesKey(t *testing.T) {
	var m Memo[string, int]
	_, err := m.Do(context.Background(), "k", func() (int, error) { panic("evaluator bug") })
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(pe.Error(), "evaluator bug") || len(pe.Stack) == 0 {
		t.Fatalf("panicking Do error = %v, want a *PanicError with value and stack", err)
	}
	if m.Len() != 0 {
		t.Error("a panicking computation kept its key")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, err := m.Do(ctx, "k", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Errorf("Do after the panic = %d, %v, want 3", v, err)
	}

	c, started := m.Go("g", func() (int, error) { panic("sweep bug") })
	if !started {
		t.Fatal("Go did not start a fresh key")
	}
	if _, err := c.Wait(context.Background()); !errors.As(err, &pe) {
		t.Errorf("panicking Go error = %v, want a *PanicError", err)
	}
	m.Wait()
	if _, started := m.Go("g", func() (int, error) { return 4, nil }); !started {
		t.Error("Go after a panic did not start again")
	}
	m.Wait()
}

// TestMemoCancelledOwnerRetries: a waiter whose owner's caller went away
// retries with its own live context and becomes the owner; a waiter whose
// own context ends stops waiting.
func TestMemoCancelledOwnerRetries(t *testing.T) {
	var m Memo[string, string]
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	in := make(chan struct{})
	go m.Do(ownerCtx, "k", func() (string, error) {
		close(in)
		<-ownerCtx.Done()
		return "", ownerCtx.Err()
	})
	<-in
	waiter := make(chan string, 1)
	go func() {
		v, err := m.Do(context.Background(), "k", func() (string, error) { return "recovered", nil })
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	cancelOwner()
	select {
	case v := <-waiter:
		if v != "recovered" {
			t.Errorf("waiter got %q, want its own computation", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not recover from the cancelled owner")
	}

	release := make(chan struct{})
	c, _ := m.Go("slow", func() (string, error) { <-release; return "late", nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Do(ctx, "slow", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter error = %v", err)
	}
	if _, err := c.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Wait error = %v", err)
	}
	close(release)
	m.Wait()
}

// TestMemoForget: a Forget memo coalesces only the computations in flight.
func TestMemoForget(t *testing.T) {
	m := Memo[string, int]{Forget: true}
	var calls atomic.Int32
	fn := func() (int, error) { return int(calls.Add(1)), nil }
	for want := 1; want <= 2; want++ {
		if v, err := m.Do(context.Background(), "k", fn); v != want || err != nil {
			t.Errorf("Do = %d, %v, want %d", v, err, want)
		}
	}
	if m.Len() != 0 {
		t.Errorf("Forget memo holds %d keys", m.Len())
	}
}

// TestMemoGoSingleFlight: Go starts one computation per key, never blocks,
// and Wait waits for every computation it started.
func TestMemoGoSingleFlight(t *testing.T) {
	var m Memo[string, int]
	release := make(chan struct{})
	var done atomic.Bool
	a, started := m.Go("k", func() (int, error) {
		<-release
		done.Store(true)
		return 5, nil
	})
	b, again := m.Go("k", func() (int, error) { return 6, nil })
	if !started || again || a != b {
		t.Fatalf("Go started = %v, %v; same call %v", started, again, a == b)
	}
	close(release)
	m.Wait()
	if !done.Load() {
		t.Error("Wait returned before the computation finished")
	}
	if v, err := b.Wait(context.Background()); v != 5 || err != nil {
		t.Errorf("Wait = %d, %v", v, err)
	}
}
