package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuscale/internal/engine"
)

const storeKeyA = "aabbccddee00112233445566778899aabbccddee00112233445566778899aabb"

func TestResultStoreLevels(t *testing.T) {
	dir := t.TempDir()
	s, err := NewResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := []byte(`{"ipc":1.5}`)
	var computes atomic.Int64
	compute := func() ([]byte, error) {
		computes.Add(1)
		return want, nil
	}

	body, src, err := s.Do(ctx, storeKeyA, compute)
	if err != nil || string(body) != string(want) || src != StoreComputed {
		t.Fatalf("first Do: %q %v %v", body, src, err)
	}
	body, src, err = s.Do(ctx, storeKeyA, compute)
	if err != nil || string(body) != string(want) || src != StoreMemory {
		t.Fatalf("second Do: %q %v %v", body, src, err)
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times", computes.Load())
	}
	if !s.Peek(storeKeyA) {
		t.Error("Peek missed a settled key")
	}

	// The disk file is hash-sharded and survives into a fresh store.
	if _, err := os.Stat(filepath.Join(dir, storeKeyA[:2], storeKeyA+".json")); err != nil {
		t.Errorf("disk file missing: %v", err)
	}
	s2, err := NewResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, src, err = s2.Do(ctx, storeKeyA, func() ([]byte, error) {
		t.Error("fresh store recomputed a disk-resident key")
		return nil, nil
	})
	if err != nil || string(body) != string(want) || src != StoreDisk {
		t.Fatalf("disk Do: %q %v %v", body, src, err)
	}
	// Disk hits promote to memory.
	if _, src, _ := s2.Do(ctx, storeKeyA, compute); src != StoreMemory {
		t.Errorf("after disk hit, source = %v", src)
	}
}

func TestResultStoreSingleFlight(t *testing.T) {
	s, err := NewResultStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	started := make(chan struct{})
	finish := make(chan struct{})
	var computes atomic.Int64
	compute := func() ([]byte, error) {
		computes.Add(1)
		close(started)
		<-finish
		return []byte("shared"), nil
	}

	const waiters = 4
	var wg sync.WaitGroup
	srcs := make([]StoreSource, waiters)
	go func() {
		<-started // owner is inside compute; now pile on waiters
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				body, src, err := s.Do(ctx, storeKeyA, compute)
				if err != nil || string(body) != "shared" {
					t.Errorf("waiter %d: %q %v", i, body, err)
				}
				srcs[i] = src
			}(i)
		}
		time.Sleep(20 * time.Millisecond) // let waiters block on the flight
		close(finish)
	}()
	body, src, err := s.Do(ctx, storeKeyA, compute)
	if err != nil || string(body) != "shared" || src != StoreComputed {
		t.Fatalf("owner: %q %v %v", body, src, err)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computed %d times across %d callers", got, waiters+1)
	}
	for i, src := range srcs {
		if src != StoreCoalesced && src != StoreMemory {
			t.Errorf("waiter %d source = %v", i, src)
		}
	}
}

func TestResultStoreErrorsNotCached(t *testing.T) {
	s, err := NewResultStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	boom := errors.New("boom")
	if _, _, err := s.Do(ctx, storeKeyA, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if s.Peek(storeKeyA) {
		t.Error("failed computation was settled")
	}
	body, src, err := s.Do(ctx, storeKeyA, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" || src != StoreComputed {
		t.Fatalf("retry after error: %q %v %v", body, src, err)
	}
}

func TestResultStoreCancelledOwnerRetries(t *testing.T) {
	s, err := NewResultStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerIn := make(chan struct{})

	// Owner: starts computing, then its client goes away.
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ownerCtx, storeKeyA, func() ([]byte, error) {
			close(ownerIn)
			<-ownerCtx.Done()
			return nil, ownerCtx.Err()
		})
		ownerDone <- err
	}()
	<-ownerIn

	// Waiter with a live context: joins the flight, sees the owner fail
	// with Canceled, retries, becomes the new owner, succeeds.
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		body, src, err := s.Do(context.Background(), storeKeyA, func() ([]byte, error) {
			return []byte("recovered"), nil
		})
		if err != nil || string(body) != "recovered" || src != StoreComputed {
			t.Errorf("waiter after cancelled owner: %q %v %v", body, src, err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	cancelOwner()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Errorf("owner error = %v", err)
	}
	select {
	case <-waiterDone:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not recover from the cancelled owner")
	}

	// A waiter whose own context dies stops waiting immediately.
	blockCtx, cancelBlock := context.WithCancel(context.Background())
	blockIn := make(chan struct{})
	release := make(chan struct{})
	go s.Do(context.Background(), "ffff"+storeKeyA[4:], func() ([]byte, error) {
		close(blockIn)
		<-release
		return []byte("late"), nil
	})
	<-blockIn
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancelBlock()
	}()
	if _, _, err := s.Do(blockCtx, "ffff"+storeKeyA[4:], nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter error = %v", err)
	}
	close(release)
}

// TestResultStorePanicReleasesKey: a panicking compute is that call's
// *engine.PanicError and leaves the key free, so the next caller computes
// instead of waiting for a computation that will never finish.
func TestResultStorePanicReleasesKey(t *testing.T) {
	s, err := NewResultStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	first := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("Do let the panic through: %v", p)
			}
		}()
		_, _, err = s.Do(context.Background(), storeKeyA, func() ([]byte, error) { panic("evaluator bug") })
		return err
	}()
	var pe *engine.PanicError
	if !errors.As(first, &pe) {
		t.Errorf("panicking compute: %v, want a *engine.PanicError", first)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	body, src, err := s.Do(ctx, storeKeyA, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" || src != StoreComputed {
		t.Fatalf("Do after the panic: %q %v %v, want a fresh computation", body, src, err)
	}
}

// storeBudget fits exactly two of the 8-byte-key/8-byte-body test entries
// used below (each charges len(key)+len(body)+entryOverhead = 144 bytes).
const storeBudget = 2*144 + 10

func TestResultStoreKeyValidationAndEviction(t *testing.T) {
	s, err := NewResultStore("", storeBudget)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, bad := range []string{"", "ab", "ABCD1234", "../etc", "xyz!1234"} {
		if _, _, err := s.Do(ctx, bad, func() ([]byte, error) { return nil, nil }); err == nil {
			t.Errorf("key %q accepted", bad)
		}
	}
	// A byte budget for two entries: settling a third evicts one.
	keys := []string{"aaaa0000", "bbbb0000", "cccc0000"}
	for _, k := range keys {
		k := k
		if _, _, err := s.Do(ctx, k, func() ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	settled := 0
	for _, k := range keys {
		if s.Peek(k) {
			settled++
		}
	}
	if settled != 2 {
		t.Errorf("settled entries = %d, want 2 (byte budget)", settled)
	}
	if got := s.MemoryBytes(); got <= 0 || got > storeBudget {
		t.Errorf("MemoryBytes = %d, want in (0, %d]", got, storeBudget)
	}
}

// TestResultStoreLRUOrder pins the eviction order: strictly least recently
// used, where hits (Do and Lookup alike) refresh recency.
func TestResultStoreLRUOrder(t *testing.T) {
	s, err := NewResultStore("", storeBudget)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	put := func(k string) {
		t.Helper()
		if _, _, err := s.Do(ctx, k, func() ([]byte, error) { return []byte(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c, d := "aaaa0000", "bbbb0000", "cccc0000", "dddd0000"

	put(a)
	put(b)
	put(c) // over budget: a is the LRU entry and must be the one evicted
	if s.Peek(a) || !s.Peek(b) || !s.Peek(c) {
		t.Fatalf("after a,b,c: settled = a:%v b:%v c:%v, want only b and c", s.Peek(a), s.Peek(b), s.Peek(c))
	}

	// A hit on b makes c the LRU entry, so d must evict c, not b.
	if body, _, ok := s.Lookup(b); !ok || string(body) != b {
		t.Fatalf("Lookup(b) = %q %v", body, ok)
	}
	put(d)
	if !s.Peek(b) || s.Peek(c) || !s.Peek(d) {
		t.Fatalf("after touching b and adding d: settled = b:%v c:%v d:%v, want b and d", s.Peek(b), s.Peek(c), s.Peek(d))
	}

	// The just-settled entry is never its own victim, even when a single
	// body exceeds the whole budget.
	big := "eeee0000"
	if _, _, err := s.Do(ctx, big, func() ([]byte, error) { return make([]byte, 2*storeBudget), nil }); err != nil {
		t.Fatal(err)
	}
	if !s.Peek(big) {
		t.Error("oversized entry was evicted while being served")
	}
	if s.Peek(b) || s.Peek(d) {
		t.Error("oversized entry did not evict the rest of the working set")
	}
}

// TestResultStoreLookup pins Lookup's non-computing contract: memory hit,
// disk hit with promotion, and a plain miss.
func TestResultStoreLookup(t *testing.T) {
	dir := t.TempDir()
	s, err := NewResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, ok := s.Lookup(storeKeyA); ok {
		t.Error("Lookup hit an empty store")
	}
	want := []byte(`{"ipc":2.5}`)
	if _, _, err := s.Do(ctx, storeKeyA, func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if body, src, ok := s.Lookup(storeKeyA); !ok || src != StoreMemory || string(body) != string(want) {
		t.Errorf("Lookup after Do = %q %v %v", body, src, ok)
	}
	// A fresh store over the same directory serves from disk and promotes.
	s2, err := NewResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if body, src, ok := s2.Lookup(storeKeyA); !ok || src != StoreDisk || string(body) != string(want) {
		t.Errorf("Lookup from disk = %q %v %v", body, src, ok)
	}
	if _, src, ok := s2.Lookup(storeKeyA); !ok || src != StoreMemory {
		t.Errorf("Lookup after promotion source = %v (ok=%v)", src, ok)
	}
}

// TestResultStoreRejectsCorruptDiskFiles plants an empty, a truncated and a
// garbage file under a key: Do must recompute instead of serving the file,
// rewrite it with the computed body and count the rejection; Lookup must
// report a miss for a corrupt file and count it once.
func TestResultStoreRejectsCorruptDiskFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewResultStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := []byte(`{"ipc":1.5}`)
	plant := func(key, body string) string {
		t.Helper()
		path := filepath.Join(dir, key[:2], key+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for i, planted := range []string{"", `{"ipc":1.`, "\x00garbage"} {
		key := fmt.Sprintf("%064x", i+1)
		path := plant(key, planted)
		body, src, err := s.Do(ctx, key, func() ([]byte, error) { return want, nil })
		if err != nil || src != StoreComputed || string(body) != string(want) {
			t.Errorf("Do over file %q = %q %v %v, want %s computed", planted, body, src, err, want)
		}
		if file, err := os.ReadFile(path); err != nil || string(file) != string(want) {
			t.Errorf("file %q after recompute = %q (%v), want %s", planted, file, err, want)
		}
		if got := s.Corrupt(); got != uint64(i+1) {
			t.Errorf("Corrupt() = %d after %d corrupt files", got, i+1)
		}
	}

	key := fmt.Sprintf("%064x", 9)
	plant(key, `{"ipc"`)
	if body, src, ok := s.Lookup(key); ok {
		t.Errorf("Lookup served a truncated file: %q %v", body, src)
	}
	if _, _, ok := s.Lookup(key); ok {
		t.Error("second Lookup hit")
	}
	if got := s.Corrupt(); got != 4 {
		t.Errorf("Corrupt() = %d after two Lookups of one corrupt file, want 4", got)
	}
}
