// Package imgstore implements PMFuzz's test-case image storage (§4.7):
// generated PM images are deduplicated by content hash (the image
// reduction of §4.5 step ④), compressed with an LZ77-family coder
// (compress/flate here, LZ77+Huffman, standing in for the paper's LZ77
// pipeline to the SSD), and pulled back through a bounded decompressed
// cache when selected as fuzzing inputs — the "move back to PM"
// direction, whose cost the simulated clock charges.
//
// Two blob encodings coexist, distinguished by a tag byte:
//
//   - full: flate-compressed serialized image — the only format seed and
//     output images use.
//   - delta: base-image ID plus a flate-compressed list of byte runs that
//     differ from the base. Sibling crash images from one sweep differ
//     from their parent's output image only in the few lines their
//     barriers had not yet drained, so storing them as deltas collapses
//     the per-image cost from O(pool) to O(changed lines).
package imgstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
)

// ID identifies a stored image by content hash.
type ID [32]byte

// String renders a short hex prefix.
func (id ID) String() string { return fmt.Sprintf("%x", id[:8]) }

// Blob encoding tags (first byte of every stored blob).
const (
	blobFull  byte = 0
	blobDelta byte = 1
)

// maxDeltaDepth bounds delta-chain recursion during decode. Fuzzer crash
// images base directly on their parent's full output image (depth 1);
// the bound only guards against malformed chains.
const maxDeltaDepth = 32

// Stats is a snapshot of store behaviour.
type Stats struct {
	// Puts counts Put/PutDelta calls; Dedups counts those that hit an
	// existing image; DeltaPuts counts fresh images stored delta-encoded.
	Puts      int
	Dedups    int
	DeltaPuts int
	// CacheHits/CacheMisses count Get lookups against the decompressed
	// caches (shared or per-worker); a miss charges the simulated
	// decompress cost.
	CacheHits   int
	CacheMisses int
	// RawBytes and CompressedBytes measure storage consumption: the
	// serialized size images would occupy uncompressed vs the blob bytes
	// actually held.
	RawBytes        int64
	CompressedBytes int64
	// BytesCompressed / BytesDecompressed count the bytes fed through the
	// compressor on Put and produced by the decompressor on decode — the
	// actual flate work done, which delta encoding shrinks.
	BytesCompressed   int64
	BytesDecompressed int64
	// ClassHits/ClassMisses count sweep-pruning equivalence-class
	// lookups recorded against the store via CountClass: a miss is a
	// fresh class (its representative image does real work downstream),
	// a hit is a crash point absorbed into an existing class. The store
	// only tallies — classing itself happens in the sweep consumers.
	ClassHits   int64
	ClassMisses int64
}

// counters holds the live statistics. They are plain atomics rather than
// mutex-guarded fields so that hit/miss accounting from concurrent
// fuzzing workers (including each worker's private Cache) never
// serializes on the store mutex and stays clean under the race
// detector.
type counters struct {
	puts, dedups, deltaPuts atomic.Int64
	cacheHits, cacheMisses  atomic.Int64
	rawBytes, compressed    atomic.Int64
	bytesComp, bytesDecomp  atomic.Int64
	classHits, classMisses  atomic.Int64
}

// Store is the content-addressed image store.
type Store struct {
	mu       sync.Mutex
	blobs    map[ID][]byte // tagged compressed blobs
	cache    map[ID]*pmem.Image
	cacheLRU []ID
	cacheCap int
	// pins holds decompressed images pinned resident by refcount —
	// stage-2 seed images that every sub-campaign execution starts
	// from. Pinned images hit like cache entries but are exempt from
	// LRU eviction and from the cache capacity (they stay resident even
	// with caching disabled, like a fork server keeping its start state
	// mapped).
	pins    map[ID]*pmem.Image
	pinRefs map[ID]int
	stats   counters

	// shard receives put/get wall-time telemetry. The store is shared
	// across workers but Put/Get through it are issued only by the
	// session's coordinating goroutine (workers go through their private
	// Cache), so a single unsynchronized shard is safe.
	shard *obs.Shard
}

// SetShard attaches a telemetry shard (nil detaches). Telemetry is
// read-only: it never changes what the store returns or charges.
func (s *Store) SetShard(sh *obs.Shard) { s.shard = sh }

// New creates a store with the given decompressed-cache capacity
// (entries). A capacity of 0 disables caching, modeling a fuzzer that
// reloads and decompresses every input image.
func New(cacheCap int) *Store {
	return &Store{
		blobs:    map[ID][]byte{},
		cache:    map[ID]*pmem.Image{},
		cacheCap: cacheCap,
		pins:     map[ID]*pmem.Image{},
		pinRefs:  map[ID]int{},
	}
}

// Pools for flate writers, readers, and scratch buffers: Put/decode are
// the hottest allocation sites in the fuzzing loop, and a flate.Writer
// alone is several hundred KiB of window state. Reset reuses it across
// Puts; the pools are shared by all workers (sync.Pool is concurrency
// safe and contents are state-free between uses).
var (
	flateWriterPool = sync.Pool{New: func() interface{} {
		w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level; cannot happen
		}
		return w
	}}
	flateReaderPool = sync.Pool{New: func() interface{} {
		return flate.NewReader(bytes.NewReader(nil))
	}}
	scratchPool = sync.Pool{New: func() interface{} {
		return new(bytes.Buffer)
	}}
)

// deflate compresses raw with a pooled writer and returns a fresh slice.
func (s *Store) deflate(raw []byte) ([]byte, error) {
	buf := scratchPool.Get().(*bytes.Buffer)
	buf.Reset()
	w := flateWriterPool.Get().(*flate.Writer)
	w.Reset(buf)
	_, werr := w.Write(raw)
	cerr := w.Close()
	flateWriterPool.Put(w)
	out := append([]byte(nil), buf.Bytes()...)
	scratchPool.Put(buf)
	if werr != nil {
		return nil, fmt.Errorf("imgstore: %w", werr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("imgstore: %w", cerr)
	}
	s.stats.bytesComp.Add(int64(len(raw)))
	return out, nil
}

// inflate decompresses blob with a pooled reader into a pooled scratch
// buffer. The returned bytes are valid until release is called: every
// caller only reads them or copies what it keeps, so a decode allocates
// no megabyte-sized buffer it would drop right away.
func (s *Store) inflate(blob []byte) (raw []byte, release func(), err error) {
	r := flateReaderPool.Get().(io.ReadCloser)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(blob), nil); err != nil {
		return nil, nil, fmt.Errorf("imgstore: reset inflate: %w", err)
	}
	buf := scratchPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, rerr := buf.ReadFrom(r)
	cerr := r.Close()
	flateReaderPool.Put(r)
	release = func() { scratchPool.Put(buf) }
	if rerr != nil {
		release()
		return nil, nil, fmt.Errorf("imgstore: decompress: %w", rerr)
	}
	if cerr != nil {
		release()
		return nil, nil, fmt.Errorf("imgstore: decompress close: %w", cerr)
	}
	s.stats.bytesDecomp.Add(int64(buf.Len()))
	return buf.Bytes(), release, nil
}

// Put stores an image full-encoded, deduplicating by content hash, and
// returns its ID and whether it was new.
func (s *Store) Put(img *pmem.Image) (ID, bool, error) {
	return s.put(img, ID{}, nil)
}

// PutDelta stores an image delta-encoded against a base image already in
// the store (baseID must be base's ID). The delta is the byte runs where
// img.Data differs from base.Data; UUID and layout are carried in the
// blob header. Falls back to full encoding when the base is unusable
// (missing, nil, or of a different size). Deduplication and the returned
// (ID, fresh) contract are identical to Put — callers cannot observe the
// encoding except through Stats.
func (s *Store) PutDelta(img *pmem.Image, baseID ID, base *pmem.Image) (ID, bool, error) {
	if base == nil || len(base.Data) != len(img.Data) {
		return s.put(img, ID{}, nil)
	}
	return s.put(img, baseID, base)
}

func (s *Store) put(img *pmem.Image, baseID ID, base *pmem.Image) (ID, bool, error) {
	defer s.shard.End(obs.StagePut, s.shard.Begin())
	id := ID(img.Hash())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.puts.Add(1)
	if _, dup := s.blobs[id]; dup {
		s.stats.dedups.Add(1)
		return id, false, nil
	}

	var blob []byte
	if base != nil {
		if _, ok := s.blobs[baseID]; ok {
			b, err := s.encodeDeltaBlob(img, baseID, base)
			if err != nil {
				return ID{}, false, err
			}
			blob = b
			s.stats.deltaPuts.Add(1)
		}
	}
	if blob == nil {
		compressed, err := s.deflate(img.Marshal())
		if err != nil {
			return ID{}, false, err
		}
		blob = append(make([]byte, 0, 1+len(compressed)), blobFull)
		blob = append(blob, compressed...)
	}
	s.blobs[id] = blob
	// RawBytes counts the serialized size regardless of encoding, so the
	// compression ratio reflects what delta encoding actually saves.
	s.stats.rawBytes.Add(int64(serializedSize(img)))
	s.stats.compressed.Add(int64(len(blob)))
	return id, true, nil
}

// serializedSize is the size img.Marshal() would produce, computed
// without building it.
func serializedSize(img *pmem.Image) int {
	const magicLen, uuidLen, lenField, sumLen = 8, 16, 8, 32
	return magicLen + uuidLen + lenField + len(img.Layout) + lenField + len(img.Data) + sumLen
}

// encodeDeltaBlob builds: tag | baseID | uuid | uvarint layoutLen |
// layout | uvarint dataLen | flate(delta payload), where the payload is
// uvarint nRuns followed by (uvarint off, uvarint len, raw bytes) runs.
func (s *Store) encodeDeltaBlob(img *pmem.Image, baseID ID, base *pmem.Image) ([]byte, error) {
	runs := diffRuns(base.Data, img.Data)
	payload := scratchPool.Get().(*bytes.Buffer)
	payload.Reset()
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		payload.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	putUvarint(uint64(len(runs)))
	for _, r := range runs {
		putUvarint(uint64(r.Off))
		putUvarint(uint64(r.Len))
		payload.Write(img.Data[r.Off : r.Off+r.Len])
	}
	compressed, err := s.deflate(payload.Bytes())
	scratchPool.Put(payload)
	if err != nil {
		return nil, err
	}

	blob := make([]byte, 0, 1+len(baseID)+16+2*binary.MaxVarintLen64+len(img.Layout)+len(compressed))
	blob = append(blob, blobDelta)
	blob = append(blob, baseID[:]...)
	blob = append(blob, img.UUID[:]...)
	blob = append(blob, tmp[:binary.PutUvarint(tmp[:], uint64(len(img.Layout)))]...)
	blob = append(blob, img.Layout...)
	blob = append(blob, tmp[:binary.PutUvarint(tmp[:], uint64(len(img.Data)))]...)
	blob = append(blob, compressed...)
	return blob, nil
}

// diffRuns returns the byte runs (cache-line granular) where b differs
// from a. len(a) == len(b) is the caller's invariant.
func diffRuns(a, b []byte) []pmem.Range {
	var runs []pmem.Range
	for off := 0; off < len(b); {
		end := off + pmem.LineSize
		if end > len(b) {
			end = len(b)
		}
		if bytes.Equal(a[off:end], b[off:end]) {
			off = end
			continue
		}
		start := off
		for off < len(b) {
			end = off + pmem.LineSize
			if end > len(b) {
				end = len(b)
			}
			if bytes.Equal(a[off:end], b[off:end]) {
				break
			}
			off = end
		}
		runs = append(runs, pmem.Range{Off: start, Len: off - start})
	}
	return runs
}

// Has reports whether the image is stored.
func (s *Store) Has(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[id]
	return ok
}

// Get returns the image, decompressing on a cache miss against the
// store's shared cache. When clock is non-nil a miss charges the
// simulated decompress-and-copy-to-PM cost. Parallel fuzzing workers use
// a private Cache instead so their hit sequences — and the simulated
// costs they save — stay deterministic per worker.
func (s *Store) Get(id ID, clock *pmem.Clock) (*pmem.Image, error) {
	defer s.shard.End(obs.StageGet, s.shard.Begin())
	s.mu.Lock()
	if img, ok := s.pins[id]; ok {
		s.mu.Unlock()
		s.stats.cacheHits.Add(1)
		return img, nil
	}
	if img, ok := s.cache[id]; ok {
		s.touch(id)
		s.mu.Unlock()
		s.stats.cacheHits.Add(1)
		return img, nil
	}
	s.mu.Unlock()
	s.stats.cacheMisses.Add(1)
	img, err := s.decode(id, clock)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.insertCache(id, img)
	s.mu.Unlock()
	return img, nil
}

// blob fetches a stored blob under the mutex.
func (s *Store) blob(id ID) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[id]
	return b, ok
}

// decode reconstructs a stored image, charging the simulated restore
// cost when clock is non-nil. It performs the expensive work outside the
// store mutex so concurrent workers decompress in parallel. Delta blobs
// reconstruct their base recursively from blobs only — never through the
// shared cache, whose contents depend on cross-worker timing and would
// break per-(Seed,Workers) determinism of the charged costs.
func (s *Store) decode(id ID, clock *pmem.Clock) (*pmem.Image, error) {
	return s.decodeDepth(id, clock, 0)
}

func (s *Store) decodeDepth(id ID, clock *pmem.Clock, depth int) (*pmem.Image, error) {
	if depth > maxDeltaDepth {
		return nil, fmt.Errorf("imgstore: delta chain too deep at %s", id)
	}
	blob, ok := s.blob(id)
	if !ok {
		return nil, fmt.Errorf("imgstore: unknown image %s", id)
	}
	if len(blob) == 0 {
		return nil, fmt.Errorf("imgstore: empty blob %s", id)
	}
	switch blob[0] {
	case blobFull:
		if clock != nil {
			clock.ChargeDecompress()
		}
		raw, release, err := s.inflate(blob[1:])
		if err != nil {
			return nil, err
		}
		img, err := pmem.UnmarshalImage(raw)
		release()
		if err != nil {
			return nil, fmt.Errorf("imgstore: %w", err)
		}
		return img, nil
	case blobDelta:
		return s.decodeDelta(id, blob, clock, depth)
	default:
		return nil, fmt.Errorf("imgstore: unknown blob tag %d for %s", blob[0], id)
	}
}

func (s *Store) decodeDelta(id ID, blob []byte, clock *pmem.Clock, depth int) (*pmem.Image, error) {
	corrupt := func(what string) error {
		return fmt.Errorf("imgstore: corrupt delta blob %s: %s", id, what)
	}
	p := 1
	if len(blob) < p+len(ID{})+16 {
		return nil, corrupt("truncated header")
	}
	var baseID ID
	p += copy(baseID[:], blob[p:])
	var uuid [16]byte
	p += copy(uuid[:], blob[p:])
	layoutLen, n := binary.Uvarint(blob[p:])
	if n <= 0 || p+n+int(layoutLen) > len(blob) {
		return nil, corrupt("layout length")
	}
	p += n
	layout := string(blob[p : p+int(layoutLen)])
	p += int(layoutLen)
	dataLen, n := binary.Uvarint(blob[p:])
	if n <= 0 {
		return nil, corrupt("data length")
	}
	p += n

	base, err := s.decodeDepth(baseID, clock, depth+1)
	if err != nil {
		return nil, fmt.Errorf("imgstore: delta base of %s: %w", id, err)
	}
	if len(base.Data) != int(dataLen) {
		return nil, corrupt("base size mismatch")
	}
	if clock != nil {
		clock.ChargeDeltaDecompress()
	}
	payload, release, err := s.inflate(blob[p:])
	if err != nil {
		return nil, err
	}
	defer release()

	// The base was decoded for this call alone (never from a cache), so
	// the delta patches its data in place.
	data := base.Data
	q := 0
	nRuns, n := binary.Uvarint(payload[q:])
	if n <= 0 {
		return nil, corrupt("run count")
	}
	q += n
	for i := uint64(0); i < nRuns; i++ {
		off, n := binary.Uvarint(payload[q:])
		if n <= 0 {
			return nil, corrupt("run offset")
		}
		q += n
		runLen, n := binary.Uvarint(payload[q:])
		if n <= 0 {
			return nil, corrupt("run length")
		}
		q += n
		if off+runLen > uint64(len(data)) || q+int(runLen) > len(payload) {
			return nil, corrupt("run out of range")
		}
		copy(data[off:off+runLen], payload[q:q+int(runLen)])
		q += int(runLen)
	}

	img := &pmem.Image{UUID: uuid, Layout: layout, Data: data}
	if got := ID(img.Hash()); got != id {
		return nil, corrupt("reconstructed hash mismatch")
	}
	// The hash was just verified against the content-addressed key;
	// memoize it so later Puts of this image skip the SHA pass.
	img.SetPrecomputedHash([32]byte(id))
	return img, nil
}

// Pin makes the image resident until a matching Unpin: it is decoded at
// most once (the miss charges clock like any Get), then every lookup
// hits regardless of cache capacity or LRU pressure. Pins are
// refcounted, so nested campaigns pinning the same seed image compose.
func (s *Store) Pin(id ID, clock *pmem.Clock) (*pmem.Image, error) {
	s.mu.Lock()
	if img, ok := s.pins[id]; ok {
		s.pinRefs[id]++
		s.mu.Unlock()
		return img, nil
	}
	if img, ok := s.cache[id]; ok {
		s.pins[id] = img
		s.pinRefs[id] = 1
		s.mu.Unlock()
		return img, nil
	}
	s.mu.Unlock()
	s.stats.cacheMisses.Add(1)
	img, err := s.decode(id, clock)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if _, ok := s.pins[id]; !ok {
		s.pins[id] = img
		s.pinRefs[id] = 0
	}
	s.pinRefs[id]++
	img = s.pins[id]
	s.mu.Unlock()
	return img, nil
}

// Unpin releases one Pin reference; at zero the image falls back to
// normal cache policy. Unpinning an unpinned ID is a no-op.
func (s *Store) Unpin(id ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pinRefs[id] <= 0 {
		return
	}
	s.pinRefs[id]--
	if s.pinRefs[id] == 0 {
		delete(s.pinRefs, id)
		delete(s.pins, id)
	}
}

// Pinned reports whether the image is currently pinned resident.
func (s *Store) Pinned(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pinRefs[id] > 0
}

// pinned returns the image if it is pinned resident.
func (s *Store) pinned(id ID) (*pmem.Image, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, ok := s.pins[id]
	return img, ok
}

func (s *Store) insertCache(id ID, img *pmem.Image) {
	if s.cacheCap <= 0 {
		return
	}
	if len(s.cacheLRU) >= s.cacheCap {
		old := s.cacheLRU[0]
		s.cacheLRU = s.cacheLRU[1:]
		delete(s.cache, old)
	}
	s.cache[id] = img
	s.cacheLRU = append(s.cacheLRU, id)
}

func (s *Store) touch(id ID) {
	for i, e := range s.cacheLRU {
		if e == id {
			s.cacheLRU = append(append(append([]ID{}, s.cacheLRU[:i]...), s.cacheLRU[i+1:]...), id)
			return
		}
	}
}

// CountClass records one sweep-pruning equivalence-class lookup: hit
// when the crash point joined an existing class, miss when it founded a
// new one. Atomic, so concurrent consumers never serialize on the store
// mutex.
func (s *Store) CountClass(hit bool) {
	if hit {
		s.stats.classHits.Add(1)
	} else {
		s.stats.classMisses.Add(1)
	}
}

// AddClassStats merges a batch of equivalence-class counts (e.g. one
// pruned oracle sweep's classes and absorbed members) into the store's
// tallies.
func (s *Store) AddClassStats(hits, misses int64) {
	s.stats.classHits.Add(hits)
	s.stats.classMisses.Add(misses)
}

// Len returns the number of distinct stored images.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}

// Stats returns a snapshot of the store statistics. The counters are
// read atomically, so a snapshot taken while workers are running is
// internally consistent enough for reporting (each counter is exact; the
// set is not a single instant).
func (s *Store) Stats() Stats {
	return Stats{
		Puts:              int(s.stats.puts.Load()),
		Dedups:            int(s.stats.dedups.Load()),
		DeltaPuts:         int(s.stats.deltaPuts.Load()),
		CacheHits:         int(s.stats.cacheHits.Load()),
		CacheMisses:       int(s.stats.cacheMisses.Load()),
		RawBytes:          s.stats.rawBytes.Load(),
		CompressedBytes:   s.stats.compressed.Load(),
		BytesCompressed:   s.stats.bytesComp.Load(),
		BytesDecompressed: s.stats.bytesDecomp.Load(),
		ClassHits:         s.stats.classHits.Load(),
		ClassMisses:       s.stats.classMisses.Load(),
	}
}

// CompressionRatio reports raw/compressed bytes (0 when empty).
func (s *Store) CompressionRatio() float64 {
	st := s.Stats()
	if st.CompressedBytes == 0 {
		return 0
	}
	return float64(st.RawBytes) / float64(st.CompressedBytes)
}

// Cache is a private decompressed-image cache in front of a shared
// Store. Each parallel fuzzing worker owns one — the in-process analog
// of each AFL instance in the paper's §5.1 fleet keeping its own
// fork-server images resident — so whether a lookup hits, and therefore
// how much simulated decompress time it is charged, depends only on that
// worker's own access sequence. That is what keeps sessions
// deterministic per (Seed, Workers): a shared LRU would make hit/miss
// patterns depend on cross-worker scheduling order.
//
// A Cache is not safe for concurrent use; it belongs to exactly one
// worker goroutine. The underlying Store remains safe to share.
type Cache struct {
	store *Store
	cap   int
	m     map[ID]*pmem.Image
	lru   []ID

	// shard receives this cache's get telemetry; single-owner like the
	// cache itself.
	shard *obs.Shard
}

// SetShard attaches the owning worker's telemetry shard (nil detaches).
func (c *Cache) SetShard(sh *obs.Shard) { c.shard = sh }

// NewCache creates a private cache over the store holding at most cap
// decompressed images. A capacity of 0 disables caching.
func (s *Store) NewCache(cap int) *Cache {
	return &Cache{store: s, cap: cap, m: map[ID]*pmem.Image{}}
}

// Cached reports whether the image is pinned in the store or resident
// in this private cache (used to decide the simulated open cost).
func (c *Cache) Cached(id ID) bool {
	if _, ok := c.store.pinned(id); ok {
		return true
	}
	_, ok := c.m[id]
	return ok
}

// Get returns the image, decompressing from the shared store on a
// private-cache miss; the miss charges the worker's clock shard. Images
// pinned in the store hit without a decode, whatever the capacity.
// Images are safe to share read-only across caches: executions copy the
// data into the simulated device before mutating it.
func (c *Cache) Get(id ID, clock *pmem.Clock) (*pmem.Image, error) {
	defer c.shard.End(obs.StageGet, c.shard.Begin())
	if img, ok := c.store.pinned(id); ok {
		c.store.stats.cacheHits.Add(1)
		return img, nil
	}
	if img, ok := c.m[id]; ok {
		c.store.stats.cacheHits.Add(1)
		c.touch(id)
		return img, nil
	}
	c.store.stats.cacheMisses.Add(1)
	img, err := c.store.decode(id, clock)
	if err != nil {
		return nil, err
	}
	c.insert(id, img)
	return img, nil
}

// LRU returns the cached IDs in LRU order (oldest first), for
// checkpoint serialization.
func (c *Cache) LRU() []ID {
	return append([]ID(nil), c.lru...)
}

// Warm repopulates the cache in the given LRU order (oldest first),
// decoding each image without charging any clock. Checkpoint restore
// uses it so a resumed session's hit/miss sequence — and therefore its
// simulated open costs — replays exactly.
func (c *Cache) Warm(lru []ID) error {
	for _, id := range lru {
		img, err := c.store.decode(id, nil)
		if err != nil {
			return err
		}
		c.insert(id, img)
	}
	return nil
}

func (c *Cache) insert(id ID, img *pmem.Image) {
	if c.cap <= 0 {
		return
	}
	if len(c.lru) >= c.cap {
		old := c.lru[0]
		c.lru = c.lru[1:]
		delete(c.m, old)
	}
	c.m[id] = img
	c.lru = append(c.lru, id)
}

func (c *Cache) touch(id ID) {
	for i, e := range c.lru {
		if e == id {
			c.lru = append(append(append([]ID{}, c.lru[:i]...), c.lru[i+1:]...), id)
			return
		}
	}
}
