package imgstore

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pmfuzz/internal/pmem"
)

func mkImage(fill byte, n int) *pmem.Image {
	return &pmem.Image{Layout: "t", Data: bytes.Repeat([]byte{fill}, n)}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New(4)
	img := mkImage(7, 4096)
	id, fresh, err := s.Put(img)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Fatalf("first Put reported duplicate")
	}
	got, err := s.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, img.Data) || got.Layout != img.Layout {
		t.Fatalf("round trip mismatch")
	}
}

func TestDedup(t *testing.T) {
	s := New(4)
	a, _, _ := s.Put(mkImage(1, 100))
	b, fresh, _ := s.Put(mkImage(1, 100))
	if a != b || fresh {
		t.Fatalf("identical images not deduplicated")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if s.Stats().Dedups != 1 {
		t.Fatalf("Dedups = %d, want 1", s.Stats().Dedups)
	}
}

func TestCacheHitMiss(t *testing.T) {
	s := New(1)
	clock := pmem.NewClock()
	idA, _, _ := s.Put(mkImage(1, 1000))
	idB, _, _ := s.Put(mkImage(2, 1000))

	before := clock.Now()
	if _, err := s.Get(idA, clock); err != nil {
		t.Fatal(err)
	}
	missCost := clock.Now() - before
	if missCost == 0 {
		t.Fatalf("cache miss charged nothing")
	}
	before = clock.Now()
	if _, err := s.Get(idA, clock); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != before {
		t.Fatalf("cache hit charged time")
	}
	// Capacity 1: loading B evicts A, so A misses again.
	if _, err := s.Get(idB, clock); err != nil {
		t.Fatal(err)
	}
	before = clock.Now()
	if _, err := s.Get(idA, clock); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == before {
		t.Fatalf("LRU did not evict")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetUnknown(t *testing.T) {
	s := New(1)
	if _, err := s.Get(ID{1, 2, 3}, nil); err == nil {
		t.Fatalf("unknown image returned no error")
	}
}

func TestCompressionHelps(t *testing.T) {
	s := New(0)
	// Pool images are mostly zeros: compression should shrink them a lot.
	img := mkImage(0, 1<<20)
	if _, _, err := s.Put(img); err != nil {
		t.Fatal(err)
	}
	if r := s.CompressionRatio(); r < 10 {
		t.Fatalf("compression ratio = %.1f, want > 10 for a zero image", r)
	}
}

func TestZeroCacheCapacity(t *testing.T) {
	s := New(0)
	id, _, _ := s.Put(mkImage(3, 100))
	for i := 0; i < 3; i++ {
		if _, err := s.Get(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().CacheHits != 0 {
		t.Fatalf("cache disabled but hits recorded")
	}
}

func TestPrivateCacheIsolation(t *testing.T) {
	// Per-worker caches must not observe each other's residency: hit/miss
	// sequences depend only on the owning worker's accesses, which is what
	// keeps parallel sessions deterministic.
	s := New(0) // shared cache disabled; workers bring their own
	idA, _, _ := s.Put(mkImage(1, 1000))
	idB, _, _ := s.Put(mkImage(2, 1000))

	c1 := s.NewCache(1)
	c2 := s.NewCache(1)
	clock := pmem.NewClock()

	before := clock.Now()
	if _, err := c1.Get(idA, clock); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == before {
		t.Fatalf("private-cache miss charged nothing")
	}
	if !c1.Cached(idA) {
		t.Fatalf("image not resident after Get")
	}
	if c2.Cached(idA) {
		t.Fatalf("c2 sees c1's residency")
	}
	before = clock.Now()
	if _, err := c1.Get(idA, clock); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != before {
		t.Fatalf("private-cache hit charged time")
	}
	// Capacity 1: loading B evicts A from c1 only.
	if _, err := c1.Get(idB, clock); err != nil {
		t.Fatal(err)
	}
	if c1.Cached(idA) {
		t.Fatalf("private LRU did not evict")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if _, err := c1.Get(ID{9, 9}, nil); err == nil {
		t.Fatalf("unknown image returned no error through Cache")
	}
}

func TestPrivateCacheZeroCapacity(t *testing.T) {
	s := New(0)
	id, _, _ := s.Put(mkImage(4, 100))
	c := s.NewCache(0)
	for i := 0; i < 3; i++ {
		if _, err := c.Get(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().CacheHits != 0 {
		t.Fatalf("capacity-0 cache recorded hits")
	}
	if s.Stats().CacheMisses != 3 {
		t.Fatalf("misses = %d, want 3", s.Stats().CacheMisses)
	}
}

func TestStatsConcurrent(t *testing.T) {
	// Hit/miss/put accounting is atomic: hammering the store from many
	// goroutines (each with a private cache, like fuzzing workers) must
	// neither race nor lose counts.
	s := New(8)
	const workers, lookups = 8, 50
	ids := make([]ID, workers)
	for i := range ids {
		ids[i], _, _ = s.Put(mkImage(byte(i), 500))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.NewCache(2)
			for i := 0; i < lookups; i++ {
				if _, err := c.Get(ids[(w+i)%workers], nil); err != nil {
					t.Error(err)
					return
				}
			}
			if _, _, err := s.Put(mkImage(byte(w), 500)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.CacheHits+st.CacheMisses != workers*lookups {
		t.Fatalf("hits %d + misses %d != %d lookups", st.CacheHits, st.CacheMisses, workers*lookups)
	}
	if st.Puts != 2*workers || st.Dedups != workers {
		t.Fatalf("puts=%d dedups=%d, want %d/%d", st.Puts, st.Dedups, 2*workers, workers)
	}
}

// mkDerived copies base and flips a few cache lines — the shape of a
// crash image relative to its run's output image.
func mkDerived(base *pmem.Image, lines ...int) *pmem.Image {
	d := &pmem.Image{UUID: base.UUID, Layout: base.Layout, Data: append([]byte(nil), base.Data...)}
	for _, l := range lines {
		for i := l * pmem.LineSize; i < (l+1)*pmem.LineSize && i < len(d.Data); i++ {
			d.Data[i] ^= 0x5A
		}
	}
	return d
}

func TestDeltaPutGetRoundTrip(t *testing.T) {
	s := New(0)
	base := mkImage(3, 1<<16)
	base.UUID = [16]byte{9, 9}
	baseID, _, err := s.Put(base)
	if err != nil {
		t.Fatal(err)
	}
	img := mkDerived(base, 1, 7, 500)
	id, fresh, err := s.PutDelta(img, baseID, base)
	if err != nil || !fresh {
		t.Fatalf("PutDelta: fresh=%v err=%v", fresh, err)
	}
	if st := s.Stats(); st.DeltaPuts != 1 {
		t.Fatalf("DeltaPuts = %d, want 1", st.DeltaPuts)
	}
	got, err := s.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.UUID != img.UUID || got.Layout != img.Layout || !bytes.Equal(got.Data, img.Data) {
		t.Fatalf("delta round trip mismatch")
	}
	if got.Hash() != img.Hash() {
		t.Fatalf("decoded hash differs")
	}
}

func TestDeltaMuchSmallerThanFull(t *testing.T) {
	// A three-line delta over a 64 KiB image must be far smaller than a
	// full (compressed) copy of random data.
	s := New(0)
	base := &pmem.Image{Layout: "t", Data: make([]byte, 1<<16)}
	rand.New(rand.NewSource(11)).Read(base.Data)
	baseID, _, _ := s.Put(base)
	fullBytes := s.Stats().CompressedBytes
	if _, _, err := s.PutDelta(mkDerived(base, 2, 3, 99), baseID, base); err != nil {
		t.Fatal(err)
	}
	deltaBytes := s.Stats().CompressedBytes - fullBytes
	if deltaBytes*10 >= fullBytes {
		t.Fatalf("delta blob %d B not well under full blob %d B", deltaBytes, fullBytes)
	}
}

func TestDeltaFallsBackToFull(t *testing.T) {
	s := New(0)
	base := mkImage(1, 4096)
	baseID, _, _ := s.Put(base)

	// nil base, wrong-size base, and unknown baseID all full-encode.
	for i, c := range []struct {
		baseID ID
		base   *pmem.Image
		img    *pmem.Image
	}{
		{baseID, nil, mkImage(2, 4096)},
		{baseID, mkImage(1, 2048), mkImage(3, 4096)},
		{ID{0xFF}, base, mkDerived(base, 5)},
	} {
		id, fresh, err := s.PutDelta(c.img, c.baseID, c.base)
		if err != nil || !fresh {
			t.Fatalf("case %d: fresh=%v err=%v", i, fresh, err)
		}
		got, err := s.Get(id, nil)
		if err != nil || !bytes.Equal(got.Data, c.img.Data) {
			t.Fatalf("case %d: round trip failed: %v", i, err)
		}
	}
	if st := s.Stats(); st.DeltaPuts != 0 {
		t.Fatalf("fallback cases recorded DeltaPuts = %d", st.DeltaPuts)
	}
}

func TestDeltaDedupAndChain(t *testing.T) {
	s := New(0)
	base := mkImage(4, 8192)
	baseID, _, _ := s.Put(base)

	img := mkDerived(base, 10)
	id1, fresh, _ := s.PutDelta(img, baseID, base)
	if !fresh {
		t.Fatalf("first delta Put reported duplicate")
	}
	// Same content again (even full-encoded) must dedup to the same ID.
	if id2, fresh2, _ := s.Put(mkDerived(base, 10)); id2 != id1 || fresh2 {
		t.Fatalf("delta-encoded image not deduplicated against full Put")
	}

	// A chain: each generation delta-encoded against the previous one.
	prev, prevID := img, id1
	var lastID ID
	for g := 0; g < 6; g++ {
		next := mkDerived(prev, 20+g)
		nid, _, err := s.PutDelta(next, prevID, prev)
		if err != nil {
			t.Fatal(err)
		}
		prev, prevID, lastID = next, nid, nid
	}
	clock := pmem.NewClock()
	got, err := s.Get(lastID, clock)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, prev.Data) {
		t.Fatalf("chained delta decode mismatch")
	}
	if clock.Now() == 0 {
		t.Fatalf("chained decode charged no simulated time")
	}
}

func TestDeltaStatsBytes(t *testing.T) {
	s := New(0)
	base := mkImage(6, 1<<15)
	baseID, _, _ := s.Put(base)
	id, _, _ := s.PutDelta(mkDerived(base, 0, 1), baseID, base)
	st := s.Stats()
	if st.BytesCompressed == 0 {
		t.Fatalf("BytesCompressed not counted: %+v", st)
	}
	if _, err := s.Get(id, nil); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BytesDecompressed == 0 {
		t.Fatalf("BytesDecompressed not counted: %+v", st)
	}
}

func TestDeltaConcurrentPuts(t *testing.T) {
	// Delta Puts share pooled flate writers and scratch buffers; hammering
	// them from many goroutines must neither race nor corrupt blobs.
	s := New(0)
	base := mkImage(8, 1<<14)
	baseID, _, _ := s.Put(base)
	const workers = 8
	var wg sync.WaitGroup
	ids := make([]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			img := mkDerived(base, w, w+workers)
			id, _, err := s.PutDelta(img, baseID, base)
			if err != nil {
				t.Error(err)
				return
			}
			ids[w] = id
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		got, err := s.Get(ids[w], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, mkDerived(base, w, w+workers).Data) {
			t.Fatalf("worker %d: concurrent delta corrupted", w)
		}
	}
}

func TestPutGetPropertyRoundTrip(t *testing.T) {
	s := New(8)
	f := func(data []byte) bool {
		img := &pmem.Image{Layout: "p", Data: data}
		id, _, err := s.Put(img)
		if err != nil {
			return false
		}
		got, err := s.Get(id, nil)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPinKeepsImageResident(t *testing.T) {
	// Pins must hold an image resident even with zero cache capacity —
	// the stage-2 campaign contract: the promoted crash image and its
	// recovered state stay decoded for the whole sub-campaign.
	s := New(0)
	img := mkImage(9, 4096)
	id, _, err := s.Put(img)
	if err != nil {
		t.Fatal(err)
	}
	c := s.NewCache(0)
	if c.Cached(id) {
		t.Fatalf("image resident before Pin with cacheCap=0")
	}
	p1, err := s.Pin(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Data, img.Data) {
		t.Fatalf("pinned image data mismatch")
	}
	if !s.Pinned(id) || !c.Cached(id) {
		t.Fatalf("image not resident after Pin")
	}
	// Get must hit the pin (same decoded instance, counted as cache hit).
	before := s.Stats().CacheHits
	got, err := s.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != p1 {
		t.Fatalf("Get decoded a second instance despite the pin")
	}
	if s.Stats().CacheHits != before+1 {
		t.Fatalf("pinned Get not counted as cache hit")
	}
	// Refcounting: nested pin + one unpin keeps it resident.
	if _, err := s.Pin(id, nil); err != nil {
		t.Fatal(err)
	}
	s.Unpin(id)
	if !s.Pinned(id) {
		t.Fatalf("image unpinned while a reference remains")
	}
	s.Unpin(id)
	if s.Pinned(id) || c.Cached(id) {
		t.Fatalf("image still resident after final Unpin with cacheCap=0")
	}
	// Unpinning an unpinned image is a no-op.
	s.Unpin(id)
}

func TestCacheHitsPinWithoutDecode(t *testing.T) {
	// A worker's private cache must honour the store's pins: a stage-2
	// campaign's pinned root image is decoded once by Pin, never again by
	// a cache (not even one with zero capacity), and never charged again
	// to the campaign clock.
	s := New(0)
	img := mkImage(5, 4096)
	id, _, err := s.Put(img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Pin(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := s.NewCache(0)
	if !c.Cached(id) {
		t.Fatalf("pinned image not reported cached by a zero-capacity cache")
	}
	before := s.Stats()
	clock := pmem.NewClock()
	got, err := c.Get(id, clock)
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("cache decoded a second instance of a pinned image")
	}
	after := s.Stats()
	if clock.Now() != 0 || after.BytesDecompressed != before.BytesDecompressed || after.CacheMisses != before.CacheMisses {
		t.Fatalf("pinned cache hit decompressed: clock=%d decompressed %d->%d misses %d->%d",
			clock.Now(), before.BytesDecompressed, after.BytesDecompressed, before.CacheMisses, after.CacheMisses)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("pinned cache hit not counted as a cache hit")
	}
}
