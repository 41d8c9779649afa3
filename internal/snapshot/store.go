package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MemBudget is the byte budget of a Store's memory tier. Past it, Put
// evicts resident blobs by CLOCK (second chance): a blob read since the
// hand last passed it survives one more sweep. An evicted blob stays on
// disk when the store has a directory, and a later Get promotes it
// again; without one, the caller recomputes it (a result re-runs to
// the same bytes, a missing boot image means a cold boot).
const MemBudget = 64 << 20

// Store is a content-addressed blob store for simulation artifacts:
// figure result bytes and post-boot snapshot images, keyed by the
// FNV-1a content address of the inputs that produced them (the simd
// cache-key scheme, DESIGN.md §11). It is a byte-bounded in-memory tier
// with an optional write-through directory, safe for concurrent use.
//
// Content addressing makes the store append-only in spirit: a key
// either misses or returns the one immutable blob that inputs hash to,
// so there is no invalidation protocol and a Put that races a Get can
// only ever install the same bytes. Disk writes are atomic
// (temp file + rename) so a crashed or killed process never leaves a
// torn blob for the next one to trust.
type Store struct {
	mu     sync.RWMutex
	mem    map[string]*entry
	hand   *entry // next CLOCK candidate; nil when mem is empty
	bytes  int64  // resident blob bytes
	budget int64  // memory-tier bound on bytes
	dir    string
}

// entry is one resident blob, linked into the CLOCK ring.
type entry struct {
	key        string
	blob       []byte
	ref        atomic.Bool // read since the hand last passed
	prev, next *entry
}

// NewStore opens a store. dir == "" keeps blobs in memory only;
// otherwise blobs write through to dir (created if missing) and later
// stores over the same directory see them. The memory tier holds at
// most MemBudget bytes.
func NewStore(dir string) (*Store, error) {
	return NewBoundedStore(dir, MemBudget)
}

// NewBoundedStore is NewStore with a memory tier of budget bytes.
func NewBoundedStore(dir string, budget int64) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("snapshot: store dir: %w", err)
		}
	}
	return &Store{mem: make(map[string]*entry), budget: budget, dir: dir}, nil
}

// validKey enforces the content-address alphabet (lower-case hex, as
// produced by the FNV-1a "%016x" hashes used throughout the repo) so a
// key can never traverse outside the store directory.
func validKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("snapshot: invalid store key %q", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("snapshot: invalid store key %q (want lower-case hex)", key)
		}
	}
	return nil
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".blob")
}

// Get returns the blob addressed by key. The returned slice is the
// caller's to keep: it is never aliased by later Puts or other Gets. A
// disk hit is promoted into memory. A memory hit takes only the read
// lock: it marks the entry referenced, and eviction happens in Put.
func (s *Store) Get(key string) ([]byte, bool) {
	if validKey(key) != nil {
		return nil, false
	}
	s.mu.RLock()
	e, ok := s.mem[key]
	var blob []byte
	if ok {
		if !e.ref.Load() {
			e.ref.Store(true)
		}
		blob = e.blob
	}
	s.mu.RUnlock()
	if !ok {
		if s.dir == "" {
			return nil, false
		}
		disk, err := os.ReadFile(s.path(key))
		if err != nil {
			return nil, false
		}
		s.mu.Lock()
		// A concurrent Put may have landed; same key means same bytes,
		// so either copy is fine.
		s.insertLocked(key, disk)
		s.mu.Unlock()
		blob = disk
	}
	out := make([]byte, len(blob))
	copy(out, blob)
	return out, true
}

// Put installs blob under key, copying it so the caller's slice stays
// theirs. With a directory configured the blob is written to a
// temporary file and renamed into place, so readers (including other
// processes) only ever observe complete blobs.
func (s *Store) Put(key string, blob []byte) error {
	if err := validKey(key); err != nil {
		return err
	}
	own := make([]byte, len(blob))
	copy(own, blob)
	s.mu.Lock()
	_, existed := s.mem[key]
	s.insertLocked(key, own)
	s.mu.Unlock()
	if existed || s.dir == "" {
		return nil
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: store put: %w", err)
	}
	if _, err := tmp.Write(own); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: store put: %w", err)
	}
	return nil
}

// insertLocked makes blob resident under key unless it already is,
// first evicting by CLOCK until it fits the budget. A blob larger than
// the whole budget is not kept in memory. Callers hold the write lock.
func (s *Store) insertLocked(key string, blob []byte) {
	n := int64(len(blob))
	if _, ok := s.mem[key]; ok || n > s.budget {
		return
	}
	for s.bytes+n > s.budget {
		e := s.hand
		s.hand = e.next
		if e.ref.Swap(false) {
			continue
		}
		if e.next == e {
			s.hand = nil
		} else {
			e.prev.next, e.next.prev = e.next, e.prev
		}
		delete(s.mem, e.key)
		s.bytes -= int64(len(e.blob))
	}
	e := &entry{key: key, blob: blob}
	if s.hand == nil {
		e.prev, e.next = e, e
		s.hand = e
	} else {
		// Just behind the hand: the newest blob is the last one the
		// sweep reaches.
		e.prev, e.next = s.hand.prev, s.hand
		e.prev.next, s.hand.prev = e, e
	}
	s.mem[key] = e
	s.bytes += n
}

// Len reports the number of blobs resident in memory (not the on-disk
// population, which may be larger until Gets promote it).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.mem)
}

// Bytes reports the bytes resident in memory, at most the budget.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Keys returns the resident content addresses in sorted order, for
// stats endpoints and tests.
func (s *Store) Keys() []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// cleanupTemp removes leftover temp files from a previous crashed
// writer. Called lazily by tests; blobs never depend on it because a
// rename either happened or the temp file is garbage.
func (s *Store) cleanupTemp() {
	if s.dir == "" {
		return
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "put-") && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}
