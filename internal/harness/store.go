package harness

// ResultStore is the persistence layer behind the gpuscaled response
// cache: a two-level, single-flight byte store keyed by canonical request
// hashes (gpuscale.Canonicalize). Level one is an in-memory map of settled
// response bodies; level two is an optional disk directory of
// hash-sharded JSON files, so a restarted daemon serves previously
// computed predictions without re-simulating. Because every simulation in
// this repository is deterministic, a stored body is exactly the body a
// recomputation would produce — replaying cached bytes preserves the
// byte-identical-response contract.
//
// Concurrency follows the harness single-flight discipline with one
// refinement the sync.Once memo cannot express: computations are
// context-aware. The first caller for a key becomes the owner and runs
// the compute function; concurrent callers wait for the owner, but a
// waiter whose own context is cancelled stops waiting immediately.
// Errors — including owner cancellation — are never settled: the failed
// in-flight entry is removed, so a later (or concurrently waiting) caller
// with a live context retries and may become the new owner. A cancelled
// client therefore cannot poison the cache for everyone else.
//
// Every body the daemon stores is one JSON document, so a disk file that
// is not — empty, truncated, overwritten with garbage — is treated as a
// miss: the body is recomputed, the file rewritten, and the rejection
// counted (Corrupt). A body that cannot be written to disk — a full disk,
// an unwritable directory — is still served and kept in memory; the
// failure is counted (WriteFailed).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// StoreSource says which level of a ResultStore served a result.
type StoreSource string

const (
	// StoreComputed: this call was the owner and ran the compute function.
	StoreComputed StoreSource = "computed"
	// StoreCoalesced: the call waited on a concurrent owner's computation.
	StoreCoalesced StoreSource = "coalesced"
	// StoreMemory: the key was already settled in memory.
	StoreMemory StoreSource = "memory"
	// StoreDisk: the key was loaded from the disk level (and promoted to
	// memory).
	StoreDisk StoreSource = "disk"
)

// storeCall is one in-flight computation; waiters block on done.
type storeCall struct {
	done chan struct{}
	body []byte
	err  error
}

// storeEntry is one settled body threaded on the intrusive LRU list:
// entries link to their neighbours directly, so a hit promotes in O(1)
// with two pointer swaps and zero allocation.
type storeEntry struct {
	key        string
	body       []byte
	prev, next *storeEntry
}

// entryOverhead approximates the fixed per-entry memory cost beyond the
// key and body bytes: the entry struct, its map slot, and the string/slice
// headers. It keeps the byte budget honest for many tiny bodies.
const entryOverhead = 128

// size is the bytes this entry charges against the memory budget.
func (e *storeEntry) size() int64 {
	return int64(len(e.key)) + int64(len(e.body)) + entryOverhead
}

// ResultStore is a two-level single-flight byte store. The zero value is
// not usable; call NewResultStore.
type ResultStore struct {
	dir      string // "" = memory-only
	maxBytes int64  // memory-level budget; <= 0 = unbounded
	mu       sync.Mutex
	settled  map[string]*storeEntry
	memBytes int64       // sum of settled entry sizes
	mru, lru *storeEntry // list ends: mru = most recently used
	flight   map[string]*storeCall
	corrupt  atomic.Uint64 // disk bodies rejected by readDisk
	failed   atomic.Uint64 // bodies writeDisk could not persist
}

// NewResultStore returns a store persisting to dir ("" keeps results in
// memory only), holding at most maxBytes of settled bodies in memory
// (<= 0 for no cap). Eviction is strict LRU over an intrusive list —
// every hit, including disk promotions, refreshes recency in O(1) — and
// evicted bodies remain readable from disk when configured. The directory
// is created if missing.
func NewResultStore(dir string, maxBytes int64) (*ResultStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: creating result store: %w", err)
		}
	}
	return &ResultStore{
		dir:      dir,
		maxBytes: maxBytes,
		settled:  make(map[string]*storeEntry),
		flight:   make(map[string]*storeCall),
	}, nil
}

// unlink removes e from the LRU list. Caller holds mu.
func (s *ResultStore) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lru = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry. Caller holds mu.
func (s *ResultStore) pushFront(e *storeEntry) {
	e.next = s.mru
	if s.mru != nil {
		s.mru.prev = e
	}
	s.mru = e
	if s.lru == nil {
		s.lru = e
	}
}

// touch promotes an already-resident entry to the front. Caller holds mu.
func (s *ResultStore) touch(e *storeEntry) {
	if s.mru == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// insert settles a body in memory and evicts from the LRU end until the
// byte budget holds again. The newest entry is never evicted — it is
// being served right now, so its memory is live either way. Caller holds
// mu.
func (s *ResultStore) insert(key string, body []byte) {
	if e, ok := s.settled[key]; ok {
		s.touch(e)
		return
	}
	e := &storeEntry{key: key, body: body}
	s.settled[key] = e
	s.memBytes += e.size()
	s.pushFront(e)
	if s.maxBytes <= 0 {
		return
	}
	for s.memBytes > s.maxBytes && s.lru != nil && s.lru != e {
		victim := s.lru
		s.unlink(victim)
		delete(s.settled, victim.key)
		s.memBytes -= victim.size()
	}
}

// Do returns the stored body for key, computing it at most once across
// concurrent callers. Lookup order: memory, disk, then compute (with
// single-flight coalescing). ctx bounds only this caller's wait and the
// owner's computation — compute must observe ctx itself for cancellation
// to propagate into a running simulation. Successful results are settled
// in memory and written to disk; errors are never cached.
func (s *ResultStore) Do(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, StoreSource, error) {
	if err := validStoreKey(key); err != nil {
		return nil, "", err
	}
	for {
		s.mu.Lock()
		if e, ok := s.settled[key]; ok {
			s.touch(e)
			body := e.body
			s.mu.Unlock()
			return body, StoreMemory, nil
		}
		if c, ok := s.flight[key]; ok {
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, "", ctx.Err()
			case <-c.done:
			}
			if c.err == nil {
				return c.body, StoreCoalesced, nil
			}
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				// The owner's client went away mid-computation; this
				// waiter's context is still live, so retry (and likely
				// become the new owner).
				continue
			}
			return nil, "", c.err
		}
		c := &storeCall{done: make(chan struct{})}
		s.flight[key] = c
		s.mu.Unlock()

		if body, ok := s.readDisk(key); ok {
			s.settle(key, c, body, nil)
			return body, StoreDisk, nil
		}
		body, err := compute()
		if err == nil && s.writeDisk(key, body) != nil {
			s.failed.Add(1)
		}
		s.settle(key, c, body, err)
		if err != nil {
			return nil, "", err
		}
		return body, StoreComputed, nil
	}
}

// Peek reports whether key is settled in memory (it does not consult
// disk, never blocks on an in-flight computation, and does not refresh
// LRU recency).
func (s *ResultStore) Peek(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.settled[key]
	return ok
}

// Lookup returns key's body if it is already available — settled in
// memory (refreshing recency) or readable from disk (promoting to
// memory) — without ever computing or waiting on an in-flight
// computation. The serving tier uses it to prefer a finished cycle
// response over a fresh analytic estimate.
func (s *ResultStore) Lookup(key string) ([]byte, StoreSource, bool) {
	if validStoreKey(key) != nil {
		return nil, "", false
	}
	s.mu.Lock()
	if e, ok := s.settled[key]; ok {
		s.touch(e)
		body := e.body
		s.mu.Unlock()
		return body, StoreMemory, true
	}
	s.mu.Unlock()
	if body, ok := s.readDisk(key); ok {
		s.mu.Lock()
		s.insert(key, body)
		s.mu.Unlock()
		return body, StoreDisk, true
	}
	return nil, "", false
}

// Corrupt reports how many disk bodies were rejected as not JSON and
// recomputed.
func (s *ResultStore) Corrupt() uint64 { return s.corrupt.Load() }

// WriteFailed reports how many computed bodies could not be written to
// disk (and were kept in memory only).
func (s *ResultStore) WriteFailed() uint64 { return s.failed.Load() }

// MemoryBytes reports the bytes currently charged to the memory level.
func (s *ResultStore) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memBytes
}

// settle publishes a finished computation to the waiters and, on success,
// to the memory level; failed entries are removed so later callers retry.
func (s *ResultStore) settle(key string, c *storeCall, body []byte, err error) {
	s.mu.Lock()
	delete(s.flight, key)
	if err == nil {
		s.insert(key, body)
	}
	s.mu.Unlock()
	c.body, c.err = body, err
	close(c.done)
}

// diskPath shards keys by their first two characters to keep directory
// fan-out bounded: dir/ab/abcd….json.
func (s *ResultStore) diskPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// readDisk returns key's body from the disk level. A file that is not one
// JSON document is counted, removed (so it is counted once) and reported
// absent; Do then recomputes the body and writes a good file.
func (s *ResultStore) readDisk(key string) ([]byte, bool) {
	if s.dir == "" {
		return nil, false
	}
	path := s.diskPath(key)
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if !json.Valid(body) {
		s.corrupt.Add(1)
		os.Remove(path) // best effort: if it stays, the next read counts it again
		return nil, false
	}
	return body, true
}

// writeDisk persists a body atomically (temp file + rename) so a crashed
// or concurrent writer in this process never leaves a torn file behind.
// Persistence is best-effort: Do counts a failure — a full or read-only
// disk — and keeps serving the body from memory instead of failing the
// request.
func (s *ResultStore) writeDisk(key string, body []byte) error {
	if s.dir == "" {
		return nil
	}
	path := s.diskPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(body)
	cerr := tmp.Close()
	if err := errors.Join(werr, cerr); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// validStoreKey restricts keys to lowercase-hex hashes of at least four
// characters — the canonical-request SHA-256 form — so keys are always
// safe path components and long enough to shard.
func validStoreKey(key string) error {
	if len(key) < 4 {
		return fmt.Errorf("harness: result-store key %q too short (want a hex hash)", key)
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("harness: result-store key %q is not lowercase hex", key)
		}
	}
	return nil
}
