// Package instr provides the instrumentation primitives PMFuzz relies on:
// stable per-call-site identifiers, an AFL-style edge-counter map for
// branch coverage, and the PM counter-map of the paper's Algorithm 1 that
// encodes transitions between PM operations.
//
// In the original system a compiler pass (LLVM) inserts a tracking call
// with a unique static ID before every PM-library call site, and AFL++
// instruments basic-block edges. Here the IDs come from two sources:
// explicit string labels registered by workload code (branch sites), and
// caller program counters captured by the pmemobj layer (PM-operation
// sites). Both are stable for a given binary, which is all the feedback
// algorithms require.
package instr

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MapSize is the number of slots in a coverage map. It matches AFL's
// default of 64 KiB: transitions are folded into the map by XOR, and rare
// collisions are an accepted property of the scheme.
const MapSize = 1 << 16

// SiteID identifies a static program location (a branch site or a PM
// operation call site).
type SiteID uint32

// ID derives a stable SiteID from a label. Workloads use it to annotate
// branch sites; the IDs are FNV-1a hashes folded into the map range so the
// same label always maps to the same slot.
func ID(label string) SiteID {
	h := fnv.New32a()
	// fnv never returns an error from Write.
	_, _ = h.Write([]byte(label))
	return SiteID(h.Sum32())
}

// CallerSite returns a SiteID for the call site `skip` frames above the
// caller, derived from source locations rather than the raw program
// counter. Raw PCs move whenever any reachable code in the binary
// changes — even linking in code this call never executes shifts
// function layout — which would silently re-randomize PM site IDs
// between builds, perturbing XOR collision patterns and breaking
// replayable golden trajectories.
//
// The ID hashes the call site's full inline expansion chain (the
// file:line of the logical frame plus every enclosing inlined frame up
// to the first physically compiled one). That keeps the granularity of
// PC identity — a helper inlined into N callers contributes N distinct
// PM sites, like instrumentation inserted after inlining — while
// depending only on the source tree, which is the paper's
// static-instrumentation contract: one stable ID per PM-library call
// site.
//
// CallerSite is safe for concurrent use; the site-ID cache is shared by
// all fuzzing workers.
func CallerSite(skip int) SiteID {
	// Callers skip: 0 is Callers itself, 1 is CallerSite, so the frame
	// `skip` levels above CallerSite's caller starts at skip+2. Only the
	// first physical PC is needed for the cache key, and the stack walk's
	// cost scales with the frames it decodes, so the hot path captures
	// exactly one; the full 8-frame inline chain is re-captured only on a
	// cache miss (once per call site per process).
	var pc1 [1]uintptr
	if runtime.Callers(skip+2, pc1[:]) == 0 {
		return 0
	}
	key := siteKey{pc: pc1[0], skip: skip}
	if id, ok := siteCache.Load().m[key]; ok {
		return id
	}
	var pcs [8]uintptr
	n := runtime.Callers(skip+2, pcs[:])
	return resolveSite(key, pcs, n)
}

// resolveSite is the cache-miss slow path, kept out of CallerSite so the
// pc array does not escape on the hot path: runtime.CallersFrames
// retains its argument slice, and with the resolution inline the array
// would be heap-allocated on EVERY call — one hidden allocation per PM
// operation. Here the array is a by-value parameter, so only actual
// misses (once per call site per process) pay the allocation.
func resolveSite(key siteKey, pcs [8]uintptr, n int) SiteID {
	frames := runtime.CallersFrames(pcs[:n])
	var label strings.Builder
	for {
		fr, more := frames.Next()
		if label.Len() > 0 {
			label.WriteByte('|')
		}
		file := fr.File
		if i := strings.LastIndexByte(file, '/'); i >= 0 {
			file = file[i+1:]
		}
		label.WriteString(file)
		label.WriteByte(':')
		label.WriteString(strconv.Itoa(fr.Line))
		// Frame.Func is nil for frames synthesized by inline expansion;
		// the first physically compiled frame ends the chain.
		if fr.Func != nil || !more {
			break
		}
	}
	id := ID(label.String())
	siteCache.publish(key, id)
	return id
}

// siteKey caches site-ID resolution per (physical PC, skip): both are
// static properties of a call site, so the first resolution can be
// reused by every later PM operation there.
type siteKey struct {
	pc   uintptr
	skip int
}

// siteMap is a copy-on-write read-mostly cache. A sync.Map would box the
// siteKey struct into an interface on every Load — one heap allocation
// per PM operation, the single largest allocation source in the fuzzing
// hot loop. Instead, lookups read an immutable plain map through an
// atomic pointer (allocation-free), and the rare miss republishes a
// copied map under a mutex. The site population is small and fixed by
// the binary's PM call sites, so copies quickly stop happening.
type siteCacheT struct {
	mu sync.Mutex
	p  atomic.Pointer[siteMapT]
}

type siteMapT struct {
	m map[siteKey]SiteID
}

func (c *siteCacheT) Load() *siteMapT { return c.p.Load() }

func (c *siteCacheT) publish(key siteKey, id SiteID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.p.Load().m
	if _, ok := old[key]; ok {
		return // lost the race; first resolution wins (same label anyway)
	}
	next := make(map[siteKey]SiteID, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = id
	c.p.Store(&siteMapT{m: next})
}

var siteCache = func() *siteCacheT {
	c := &siteCacheT{}
	c.p.Store(&siteMapT{m: map[siteKey]SiteID{}})
	return c
}()

// Map is a fixed-size counter map in the style of AFL's shared-memory
// bitmap. Counters saturate at 255.
type Map [MapSize]uint8

// Hit increments the counter at loc, saturating at 255.
func (m *Map) Hit(loc uint32) {
	i := loc & (MapSize - 1)
	if m[i] != 0xff {
		m[i]++
	}
}

// Reset zeroes the map in place.
func (m *Map) Reset() {
	for i := range m {
		m[i] = 0
	}
}

// CountNonZero returns the number of populated slots.
func (m *Map) CountNonZero() int {
	n := 0
	for _, v := range m {
		if v != 0 {
			n++
		}
	}
	return n
}

// Classify buckets a raw counter the way AFL does, so that "significantly
// different counter values" (Algorithm 2's diffCounter) can be detected by
// comparing bucket bytes rather than exact counts.
func Classify(v uint8) uint8 {
	switch {
	case v == 0:
		return 0
	case v == 1:
		return 1
	case v == 2:
		return 2
	case v == 3:
		return 4
	case v <= 7:
		return 8
	case v <= 15:
		return 16
	case v <= 31:
		return 32
	case v <= 127:
		return 64
	default:
		return 128
	}
}

// Tracer accumulates both coverage signals for one program execution: the
// branch edge map (AFL-style) and the PM counter-map (Algorithm 1).
type Tracer struct {
	branch Map
	pm     Map

	prevBranch uint32
	prevPM     uint32

	branchOps int
	pmOps     int
}

// NewTracer returns a Tracer ready for one execution.
func NewTracer() *Tracer {
	return &Tracer{}
}

// Branch records that execution reached branch site id. Transitions
// between consecutive branch sites are encoded AFL-style:
// loc = cur ^ prev; prev = cur >> 1.
func (t *Tracer) Branch(id SiteID) {
	cur := uint32(id)
	t.branch.Hit(cur ^ t.prevBranch)
	t.prevBranch = cur >> 1
	t.branchOps++
}

// PMOp records a PM operation at site id, implementing Algorithm 1 of the
// paper: the transition between the previous and current PM operation is
// XOR-encoded into the PM counter-map, and the previous ID is right-shifted
// one bit to preserve transition direction.
func (t *Tracer) PMOp(id SiteID) {
	cur := uint32(id)
	loc := cur ^ t.prevPM
	t.pm.Hit(loc)
	t.prevPM = cur >> 1
	t.pmOps++
}

// BranchMap returns the branch edge map.
func (t *Tracer) BranchMap() *Map { return &t.branch }

// PMMap returns the PM counter-map.
func (t *Tracer) PMMap() *Map { return &t.pm }

// BranchOps reports how many branch sites were recorded.
func (t *Tracer) BranchOps() int { return t.branchOps }

// PMOps reports how many PM operations were recorded.
func (t *Tracer) PMOps() int { return t.pmOps }

// Reset clears the tracer for reuse across executions.
func (t *Tracer) Reset() {
	t.branch.Reset()
	t.pm.Reset()
	t.prevBranch = 0
	t.prevPM = 0
	t.branchOps = 0
	t.pmOps = 0
}

// Virgin tracks which map slots (and counter buckets) have been seen
// across a whole fuzzing session. It mirrors AFL's virgin_bits array: each
// slot holds the OR of classified counters observed so far.
type Virgin struct {
	seen [MapSize]uint8
}

// NewVirgin returns an empty Virgin map.
func NewVirgin() *Virgin { return &Virgin{} }

// Merge folds an execution's map into the virgin state and reports what
// was new: hasNewSlot is true if some slot was hit for the first time,
// hasNewBucket is true if a previously seen slot reached a new counter
// bucket.
//
// Maps are sparse, so the scan loads 8 slots at a time and skips the
// all-zero words.
func (v *Virgin) Merge(m *Map) (hasNewSlot, hasNewBucket bool) {
	for w := 0; w < MapSize; w += 8 {
		if binary.LittleEndian.Uint64(m[w:]) == 0 {
			continue
		}
		for i := w; i < w+8; i++ {
			raw := m[i]
			if raw == 0 {
				continue
			}
			c := Classify(raw)
			old := v.seen[i]
			if old == 0 {
				hasNewSlot = true
			} else if old&c == 0 {
				hasNewBucket = true
			}
			v.seen[i] = old | c
		}
	}
	return hasNewSlot, hasNewBucket
}

// MergeFrom folds another virgin's accumulated state into v and reports
// whether anything new appeared, with the same meaning as Merge. It is
// the sharded coverage merge of the parallel fuzzer: workers accumulate
// into private Virgin pairs, and the coordinator both folds shipped maps
// into the authoritative pair and refreshes each worker's private pair
// from it between batch leases, so workers stop re-reporting coverage
// the fleet as a whole has already seen.
//
// Virgin values are not safe for concurrent mutation; the parallel
// engine guarantees exclusive access by only calling MergeFrom while the
// owning worker is parked between a result hand-off and its next lease.
// Classify and Signature are pure functions and safe from any goroutine.
//
// The scan works on 8 slots per load and skips every word in which o
// has no bit v lacks — in a refresh that is nearly all of them.
func (v *Virgin) MergeFrom(o *Virgin) (hasNewSlot, hasNewBucket bool) {
	for i := 0; i < MapSize; i += 8 {
		ow := binary.LittleEndian.Uint64(o.seen[i:])
		vw := binary.LittleEndian.Uint64(v.seen[i:])
		if ow&^vw == 0 {
			continue
		}
		for sh := 0; sh < 64; sh += 8 {
			b, old := uint8(ow>>sh), uint8(vw>>sh)
			if b&^old == 0 {
				continue
			}
			if old == 0 {
				hasNewSlot = true
			} else {
				hasNewBucket = true
			}
		}
		binary.LittleEndian.PutUint64(v.seen[i:], vw|ow)
	}
	return hasNewSlot, hasNewBucket
}

// Peek reports what Merge would return without mutating the virgin state.
func (v *Virgin) Peek(m *Map) (hasNewSlot, hasNewBucket bool) {
	for i, raw := range m {
		if raw == 0 {
			continue
		}
		c := Classify(raw)
		old := v.seen[i]
		if old == 0 {
			hasNewSlot = true
			if hasNewBucket {
				break
			}
		} else if old&c == 0 {
			hasNewBucket = true
			if hasNewSlot {
				break
			}
		}
	}
	return hasNewSlot, hasNewBucket
}

// CoveredSlots returns the number of distinct slots ever observed.
func (v *Virgin) CoveredSlots() int {
	n := 0
	for _, b := range v.seen {
		if b != 0 {
			n++
		}
	}
	return n
}

// Bytes returns a copy of the virgin's accumulated slot bytes, for
// checkpoint serialization.
func (v *Virgin) Bytes() []byte {
	out := make([]byte, MapSize)
	copy(out, v.seen[:])
	return out
}

// SetBytes restores virgin state captured by Bytes. Short input leaves
// the remaining slots zero; long input is truncated.
func (v *Virgin) SetBytes(b []byte) {
	for i := range v.seen {
		v.seen[i] = 0
	}
	copy(v.seen[:], b)
}

// Signature summarizes a map's classified contents into one hash. Two
// executions share a signature exactly when they hit the same slots with
// the same counter buckets — the practical identity test for the paper's
// PM path π_PM (a sequence of PM nodes): counting distinct signatures
// counts distinct covered PM paths. Like Merge, the scan skips all-zero
// 8-slot words.
func Signature(m *Map) uint64 {
	h := fnv.New64a()
	var buf [6]byte
	for w := 0; w < MapSize; w += 8 {
		if binary.LittleEndian.Uint64(m[w:]) == 0 {
			continue
		}
		for i := w; i < w+8; i++ {
			v := m[i]
			if v == 0 {
				continue
			}
			buf[0] = byte(i)
			buf[1] = byte(i >> 8)
			buf[2] = Classify(v)
			_, _ = h.Write(buf[:3])
		}
	}
	return h.Sum64()
}

// CoveredStates counts distinct (slot, counter-bucket) pairs observed —
// the path metric Algorithm 2 induces: the same transition sequence with
// a significantly different visit count is a different path, exactly as
// AFL's bucketed hit counts distinguish paths through loops.
func (v *Virgin) CoveredStates() int {
	n := 0
	for _, b := range v.seen {
		for b != 0 {
			n += int(b & 1)
			b >>= 1
		}
	}
	return n
}

// NewStatesOver counts the (slot, counter-bucket) states covered by v
// that o never observed — the set difference CoveredStates(v) \
// CoveredStates(o). The two-stage engine uses it to demonstrate that
// stage-2 sub-campaigns reach recovery-path PM states an equal-budget
// stage-1-only session does not.
func (v *Virgin) NewStatesOver(o *Virgin) int {
	n := 0
	for i, b := range v.seen {
		for d := b &^ o.seen[i]; d != 0; d >>= 1 {
			n += int(d & 1)
		}
	}
	return n
}
