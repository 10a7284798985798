package ifunc

import (
	"hash/fnv"
	"testing"

	"threechains/internal/sim"
)

func TestContentHashMatchesFNV1a(t *testing.T) {
	// ContentHash is inlined FNV-1a 64 so the send path never allocates
	// a hash.Hash; pin it to the stdlib implementation.
	for _, s := range []string{"", "a", "fat bitcode archive", "\x00\xff\x00"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := ContentHash([]byte(s)), h.Sum64(); got != want {
			t.Fatalf("ContentHash(%q) = %016x, want %016x", s, got, want)
		}
	}
	// The incremental Hasher agrees with the one-shot form.
	hs := NewHasher()
	hs.Write([]byte("fat "))
	hs.Write([]byte("bitcode"))
	if got, want := hs.Sum64(), ContentHash([]byte("fat bitcode")); got != want {
		t.Fatalf("incremental hash %016x, want %016x", got, want)
	}
}

func testStore() (*Store, *sim.Time) {
	now := new(sim.Time)
	return NewStore(func() sim.Time { return *now }), now
}

func TestStoreInternDedupAndPin(t *testing.T) {
	s, _ := testStore()
	a := []byte("module-a")
	h := ContentHash(a)
	c1 := s.Intern(h, BlobCode, a, 1)
	if &c1[0] == &a[0] {
		t.Fatal("Intern did not copy on first store")
	}
	c2 := s.Intern(h, BlobCode, append([]byte(nil), a...), 1)
	if &c1[0] != &c2[0] {
		t.Fatal("second Intern did not return the canonical slice")
	}
	if s.Stats.Puts != 1 || s.Stats.Hits != 1 {
		t.Fatalf("stats %+v", s.Stats)
	}
	if !s.HasPinned(h) {
		t.Fatal("pinned blob not advertised")
	}
	s.Unpin(h)
	if !s.HasPinned(h) {
		t.Fatal("blob with one remaining pin not advertised")
	}
	s.Unpin(h)
	if s.HasPinned(h) {
		t.Fatal("fully unpinned blob still advertised")
	}
	// Unpinned blobs stay resident (unlimited budget) and fetchable.
	if _, ok := s.Get(h); !ok {
		t.Fatal("unpinned blob evicted under unlimited budget")
	}
	s.Unpin(h) // tolerant no-op below zero
}

func TestStoreCollisionKeepsPrivateCopy(t *testing.T) {
	s, _ := testStore()
	h := uint64(42)
	s.Intern(h, BlobCode, []byte("first"), 1)
	got := s.Intern(h, BlobCode, []byte("other"), 1)
	if string(got) != "other" {
		t.Fatalf("collision returned %q", got)
	}
	if s.Stats.Collisions != 1 {
		t.Fatalf("stats %+v", s.Stats)
	}
	if blob, _ := s.Get(h); string(blob) != "first" {
		t.Fatal("collision clobbered the canonical blob")
	}
}

// churn interns n distinct blobs with interleaved pins/unpins/touches —
// the deterministic workload the eviction tests replay.
func churn(s *Store, now *sim.Time, n int) {
	hashes := make([]uint64, n)
	for i := 0; i < n; i++ {
		b := make([]byte, 64)
		for j := range b {
			b[j] = byte(i * (j + 3))
		}
		hashes[i] = ContentHash(b)
		*now += 10
		s.Intern(hashes[i], BlobCode, b, 1)
		// Deregister immediately: the churn exercises the unpinned LRU,
		// so the budget bound applies strictly (pinned residency is
		// covered by TestStorePinnedBlobsSurviveBudget).
		s.Unpin(hashes[i])
		if i%3 == 0 && i > 0 {
			*now += 1
			s.Get(hashes[i-1]) // recency touch
		}
	}
}

func TestStoreBudgetBoundAndDeterministicEviction(t *testing.T) {
	run := func() (*Store, sim.Time) {
		s, now := testStore()
		s.Budget = 256 // four 64-byte blobs
		churn(s, now, 32)
		return s, *now
	}
	s1, _ := run()
	if s1.Bytes() > s1.Budget {
		t.Fatalf("resident %d bytes over budget %d", s1.Bytes(), s1.Budget)
	}
	if s1.MaxBytes() > s1.Budget+64 {
		// High-water may momentarily hold the incoming blob plus a full
		// budget before eviction runs, never more.
		t.Fatalf("high-water %d bytes, budget %d", s1.MaxBytes(), s1.Budget)
	}
	if s1.Stats.Evictions == 0 {
		t.Fatal("churn under a tight budget evicted nothing")
	}
	// Same churn, same eviction log — byte for byte.
	s2, _ := run()
	log1, log2 := s1.EvictRecords(), s2.EvictRecords()
	if len(log1) != len(log2) {
		t.Fatalf("eviction counts differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("eviction %d differs: %+v vs %+v", i, log1[i], log2[i])
		}
	}
}

// TestStoreEvictLogBounded pins the eviction ring: retention never
// exceeds the cap, the dropped count accounts for the overflow exactly,
// and the retained window is the most recent records in order.
func TestStoreEvictLogBounded(t *testing.T) {
	s, now := testStore()
	s.Budget = 256
	s.EvictLogCap = 8
	churn(s, now, 64)
	if s.Stats.Evictions <= 8 {
		t.Fatalf("churn evicted only %d times; scenario broken", s.Stats.Evictions)
	}
	if got := s.EvictLogLen(); got != 8 {
		t.Fatalf("retained %d records, want cap 8", got)
	}
	if want := s.Stats.Evictions - 8; s.EvictLogDropped() != want {
		t.Fatalf("dropped %d, want %d", s.EvictLogDropped(), want)
	}
	recs := s.EvictRecords()
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatalf("retained window out of order at %d: %v after %v", i, recs[i].At, recs[i-1].At)
		}
	}
	// The hook sees every eviction, bounded ring or not.
	s2, now2 := testStore()
	s2.Budget = 256
	s2.EvictLogCap = 8
	hooked := 0
	s2.OnEvict = func(EvictRecord) { hooked++ }
	churn(s2, now2, 64)
	if uint64(hooked) != s2.Stats.Evictions {
		t.Fatalf("OnEvict saw %d of %d evictions", hooked, s2.Stats.Evictions)
	}
}

func TestStorePinnedBlobsSurviveBudget(t *testing.T) {
	s, now := testStore()
	s.Budget = 64
	pinned := []byte("pinned-module-that-must-stay")
	hp := ContentHash(pinned)
	s.Intern(hp, BlobCode, pinned, 1)
	for i := 0; i < 8; i++ {
		*now += 5
		b := make([]byte, 64)
		b[0] = byte(i + 1)
		s.Intern(ContentHash(b), BlobCode, b, 0)
	}
	if _, ok := s.Get(hp); !ok {
		t.Fatal("pinned blob evicted")
	}
	// Pinned bytes can exceed the budget (pins are live registrations);
	// only unpinned residency is reclaimed.
	if s.Stats.Evictions == 0 {
		t.Fatal("unpinned churn not evicted")
	}
}
