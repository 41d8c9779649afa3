package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStoreMemoryRoundTrip(t *testing.T) {
	s, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("00112233aabbccdd"); ok {
		t.Fatal("empty store returned a blob")
	}
	blob := []byte("figure bytes")
	if err := s.Put("00112233aabbccdd", blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("00112233aabbccdd")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, blob)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestStoreCopyIsolation: the store must own its bytes — mutating the
// slice passed to Put or returned by Get must not corrupt the blob.
func TestStoreCopyIsolation(t *testing.T) {
	s, _ := NewStore("")
	blob := []byte("immutable")
	s.Put("aa", blob)
	blob[0] = 'X'
	got, _ := s.Get("aa")
	if string(got) != "immutable" {
		t.Fatalf("Put aliased caller slice: %q", got)
	}
	got[0] = 'Y'
	again, _ := s.Get("aa")
	if string(again) != "immutable" {
		t.Fatalf("Get handed out an aliased slice: %q", again)
	}
}

func TestStoreRejectsUnsafeKeys(t *testing.T) {
	s, _ := NewStore(t.TempDir())
	for _, key := range []string{"", "../escape", "ABCDEF", "a b", "deadbeef/../../x", "0x12"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) returned a blob for an unsafe key", key)
		}
	}
}

// TestStoreDiskPersistence: a second store over the same directory sees
// blobs the first one wrote, and disk hits promote into memory.
func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	first, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("post-boot image")
	if err := first.Put("deadbeef01234567", blob); err != nil {
		t.Fatal(err)
	}

	second, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if second.Len() != 0 {
		t.Fatalf("fresh store pre-populated memory: Len = %d", second.Len())
	}
	got, ok := second.Get("deadbeef01234567")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("disk blob not visible to second store: %q, %v", got, ok)
	}
	if second.Len() != 1 {
		t.Fatal("disk hit was not promoted into memory")
	}

	// No torn temp files left behind.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".blob" {
			t.Fatalf("unexpected non-blob file in store dir: %s", e.Name())
		}
	}
}

// TestStoreConcurrent hammers one store from many goroutines with
// overlapping keys; run under -race this is the concurrency-safety
// proof. Content addressing means racing Puts of one key always carry
// the same bytes, so every Get must observe either a miss or exactly
// those bytes.
func TestStoreConcurrent(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blobFor := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 64+k) }
	keyFor := func(k int) string { return fmt.Sprintf("%016x", 0xabc0+k) }

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % 8
				if err := s.Put(keyFor(k), blobFor(k)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := s.Get(keyFor(k)); !ok || !bytes.Equal(got, blobFor(k)) {
					t.Errorf("Get(%s) = %d bytes, ok=%v; want blob %d", keyFor(k), len(got), ok, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if keys := s.Keys(); len(keys) != 8 || keys[0] != keyFor(0) {
		t.Fatalf("Keys = %v", keys)
	}
	s.cleanupTemp()
}

// TestStoreMemoryBudget: the memory tier never holds more than its
// budget; Put evicts by CLOCK, so a blob read since the hand last
// passed survives the next eviction while an unread one goes first.
func TestStoreMemoryBudget(t *testing.T) {
	s, err := NewBoundedStore("", 300)
	if err != nil {
		t.Fatal(err)
	}
	blob := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 100) }
	key := func(k int) string { return fmt.Sprintf("%016x", k) }
	for k := 0; k < 3; k++ {
		if err := s.Put(key(k), blob(k)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 || s.Bytes() != 300 {
		t.Fatalf("Len = %d, Bytes = %d; want 3 blobs, 300 bytes", s.Len(), s.Bytes())
	}
	// Blob 0 is read, so the hand passes it and evicts blob 1.
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("blob 0 missing before eviction")
	}
	s.Put(key(3), blob(3))
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("unread blob 1 survived the eviction")
	}
	for _, k := range []int{0, 2, 3} {
		if got, ok := s.Get(key(k)); !ok || !bytes.Equal(got, blob(k)) {
			t.Fatalf("blob %d lost or changed after eviction", k)
		}
	}
	if s.Len() != 3 || s.Bytes() != 300 {
		t.Fatalf("after eviction Len = %d, Bytes = %d; want 3 blobs, 300 bytes", s.Len(), s.Bytes())
	}

	// A blob larger than the whole budget is not kept in memory, and
	// does not evict what is.
	if err := s.Put(key(9), bytes.Repeat([]byte{9}, 301)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(9)); ok || s.Len() != 3 {
		t.Fatalf("oversized blob made resident: Len = %d", s.Len())
	}

	for k := 10; k < 100; k++ {
		s.Put(key(k), blob(k))
		if s.Bytes() > 300 {
			t.Fatalf("after %d puts resident bytes %d exceed the 300-byte budget", k, s.Bytes())
		}
	}
}

// TestStoreEvictedBlobPromotesFromDisk: with a directory, an evicted
// blob stays on disk and a later Get promotes it back into memory.
func TestStoreEvictedBlobPromotesFromDisk(t *testing.T) {
	s, err := NewBoundedStore(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	a, b := bytes.Repeat([]byte{'a'}, 64), bytes.Repeat([]byte{'b'}, 64)
	s.Put("aa", a)
	s.Put("bb", b) // evicts aa from memory
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "bb" {
		t.Fatalf("resident keys %v, want [bb]", keys)
	}
	got, ok := s.Get("aa")
	if !ok || !bytes.Equal(got, a) {
		t.Fatalf("evicted blob not served from disk: %q, %v", got, ok)
	}
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "aa" {
		t.Fatalf("resident keys after promotion %v, want [aa]", keys)
	}
}

// TestStoreConcurrentUnderBudget is TestStoreConcurrent with a budget
// that holds three of the eight blobs, so hits, evictions and disk
// promotions interleave; under -race it proves the read-locked hit path
// and the write-locked eviction safe together.
func TestStoreConcurrentUnderBudget(t *testing.T) {
	const budget = 3 * 128
	s, err := NewBoundedStore(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	blobFor := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 128) }
	keyFor := func(k int) string { return fmt.Sprintf("%016x", 0xabc0+k) }
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % 8
				if err := s.Put(keyFor(k), blobFor(k)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if got, ok := s.Get(keyFor(k)); !ok || !bytes.Equal(got, blobFor(k)) {
					t.Errorf("Get(%s) = %d bytes, ok=%v; want blob %d", keyFor(k), len(got), ok, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Bytes() > budget || s.Len() > 3 {
		t.Fatalf("resident %d blobs, %d bytes; budget %d bytes", s.Len(), s.Bytes(), budget)
	}
	s.cleanupTemp()
}
