// Package pmem simulates a byte-addressable persistent memory device with
// an x86-like durability model. It is the substrate substituting for the
// Intel Optane DC persistent memory modules and DAX-mapped files used by
// the paper.
//
// The model mirrors the volatile cache hierarchy over PM:
//
//   - Store writes bytes into a volatile view and marks the touched cache
//     lines dirty. A dirty line is NOT durable: it is lost if a failure
//     occurs before it is flushed and fenced.
//   - Flush (the CLWB analog) moves a line from dirty to the write-pending
//     queue. A queued line is still not guaranteed durable.
//   - Fence (the SFENCE analog, the paper's persist_barrier) drains the
//     write-pending queue into the persisted backing array. Only then are
//     the lines durable.
//
// A simulated failure yields a crash image containing exactly the
// persisted state; the volatile view (with its dirty and queued lines) is
// discarded, exactly like a power outage. Failure injection hooks fire at
// ordering points (fences) and, optionally and probabilistically, at any
// PM operation — the two crash-image generation modes of §3.2 of the
// paper.
package pmem

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/trace"
)

// LineSize is the simulated cache-line size in bytes, matching x86.
const LineSize = 64

// Common device errors.
var (
	ErrOutOfRange = errors.New("pmem: access out of device range")
	ErrClosed     = errors.New("pmem: device is closed")
)

// Hang is the panic value raised when an execution exceeds its PM
// operation limit — the analog of a fuzzing timeout: corrupted inputs
// (e.g. a crash image with a cyclic structure) can make the target loop
// forever, and the harness must bound every run.
type Hang struct {
	// Ops is the limit that was exceeded.
	Ops int
}

func (h Hang) Error() string {
	return fmt.Sprintf("pmem: execution exceeded %d PM operations (hang)", h.Ops)
}

// Crash is the panic value used to unwind execution when an injected
// failure fires. Executors recover it and harvest the crash image.
type Crash struct {
	// Barrier is the ordering-point count at which the failure fired, or
	// -1 if the failure fired at a non-barrier PM operation.
	Barrier int
	// Op is the PM-operation count at which the failure fired.
	Op int
}

func (c Crash) Error() string {
	return fmt.Sprintf("pmem: injected failure (barrier=%d op=%d)", c.Barrier, c.Op)
}

// FailureInjector decides where simulated failures occur during an
// execution. Implementations must be deterministic for a given seed so
// that the same test case always produces the same crash image (§4.4).
type FailureInjector interface {
	// AtBarrier is consulted after the n-th ordering point (fence) takes
	// effect. Returning true crashes the program at that point.
	AtBarrier(n int) bool
	// AtOp is consulted at every PM operation, identified by its running
	// index. Returning true crashes the program at that point. This is the
	// probabilistic injection mode that covers programs with misplaced
	// ordering points.
	AtOp(n int) bool
}

// Per-line durability states. A line whose epoch stamp is stale is
// clean; lineClean only ever appears as an explicit stamp after a fence
// or close drained the line within the current execution.
const (
	lineClean  uint8 = 0
	lineDirty  uint8 = 1 // written, not flushed
	lineQueued uint8 = 2 // flushed, not fenced
)

// Device is one simulated PM module holding a single mapped image.
//
// The line-tracking hot path is flat and epoch-stamped rather than
// map-based: lineState[l] is valid only while lineEpoch[l] equals the
// device's current epoch, so Reset clears every per-line set in O(1) by
// bumping the epoch instead of reallocating or zeroing. dirtyList and
// queuedList append a line index every time a line *enters* that state;
// entries go stale when the line transitions again, so every consumer
// filters against the current lineState (and deduplicates where a line
// may have bounced into the same state twice). This keeps Store / Flush
// / Fence allocation-free while giving drains and snapshots a compact
// candidate list instead of a full-device scan.
type Device struct {
	persisted []byte
	volatile  []byte

	epoch      uint32
	lineEpoch  []uint32 // per-line epoch stamp validating lineState
	lineState  []uint8  // lineClean / lineDirty / lineQueued
	touchEpoch []uint32 // per-line epoch stamp validating touchList membership
	dirtyList  []int32  // lines that entered lineDirty (lazy-stale)
	queuedList []int32  // lines that entered lineQueued (lazy-stale)
	touchList  []int32  // lines written this execution (for fast Reset)
	nDirty     int
	nQueued    int

	// lastBase identifies the image the previous Reset started from, so a
	// Reset onto the same image can restore only the touched lines.
	lastBase     *Image
	lastBaseData []byte
	lastEmpty    bool

	// scratch buffers for sorted line collection (UnpersistedRanges and
	// the sweep checkpoint capture); reused across calls.
	scratchA []int
	scratchB []int
	scratchC []int

	tracer    *instr.Tracer
	sink      trace.Sink
	injector  FailureInjector
	clock     *Clock
	snapAlloc func(n int) []byte // optional snapshot-buffer allocator

	opCount      int
	opLimit      int // 0 = unlimited
	barrierCount int
	barrierOps   []int // PM-op index of each fence, in order
	internal     int   // >0 while the PM library performs metadata accesses
	closed       bool
	commitVars   []Range
	cvAtLastOp   int // len(commitVars) as of the most recent PM operation
	cvNorm       []Range
	cvNormAt     int // len(commitVars) the cvNorm memo was computed at

	sweep *Sweep // non-nil while a copy-on-write sweep journal is attached

	stats Stats
}

// Stats aggregates operation counts for one device lifetime.
type Stats struct {
	Stores   int
	Loads    int
	Flushes  int
	Fences   int
	NTStores int
}

// NewDevice creates a device of the given size initialized to zero bytes.
func NewDevice(size int) *Device {
	d := &Device{}
	d.ResetEmpty(size)
	d.clock = NewClock()
	return d
}

// NewDeviceFromImage creates a device whose persisted and volatile state
// are both initialized from the image contents, as if the image file were
// DAX-mapped at program start.
func NewDeviceFromImage(img *Image) *Device {
	d := &Device{}
	d.Reset(img)
	d.clock = NewClock()
	return d
}

// Reset reinitializes the device to the state NewDeviceFromImage(img)
// would produce — except that the clock starts nil instead of fresh —
// reusing every internal buffer. It is the persistent-mode analog: a
// fuzzing worker keeps one device arena and resets it per execution
// instead of allocating ~2×poolsize each run. Attached tracer, sink,
// injector, clock, snapshot allocator, op limit, sweep journal, and all
// counters are cleared.
func (d *Device) Reset(img *Image) {
	d.resetState(len(img.Data), img)
}

// ResetEmpty is Reset onto a zeroed device of the given size — the
// NewDevice analog.
func (d *Device) ResetEmpty(size int) {
	d.resetState(size, nil)
}

func (d *Device) resetState(size int, base *Image) {
	if len(d.persisted) != size {
		d.persisted = make([]byte, size)
		d.volatile = make([]byte, size)
		nl := (size + LineSize - 1) / LineSize
		d.lineEpoch = make([]uint32, nl)
		d.lineState = make([]uint8, nl)
		d.touchEpoch = make([]uint32, nl)
		d.epoch = 0 // bumped below; fresh zero stamps then read as clean
		d.lastBase, d.lastBaseData, d.lastEmpty = nil, nil, false
	}

	// Content restore. The fast path applies when the device is reset onto
	// the very image (same *Image, same backing array) the previous
	// execution started from: only touched lines can differ from the base
	// — persisted bytes change solely on drained/evicted lines (all
	// entered via Store/NTStore) and volatile bytes solely in
	// Store/NTStore, both of which stamp touchList.
	switch {
	case base != nil && d.lastBase == base && sameSlice(d.lastBaseData, base.Data):
		for _, l32 := range d.touchList {
			start, end := lineBounds(int(l32), size)
			copy(d.persisted[start:end], base.Data[start:end])
			copy(d.volatile[start:end], base.Data[start:end])
		}
	case base == nil && d.lastEmpty:
		for _, l32 := range d.touchList {
			start, end := lineBounds(int(l32), size)
			clear(d.persisted[start:end])
			clear(d.volatile[start:end])
		}
	case base != nil:
		copy(d.persisted, base.Data)
		copy(d.volatile, base.Data)
	default:
		clear(d.persisted)
		clear(d.volatile)
	}
	if base != nil {
		d.lastBase, d.lastBaseData, d.lastEmpty = base, base.Data, false
	} else {
		d.lastBase, d.lastBaseData, d.lastEmpty = nil, nil, true
	}

	d.epoch++
	if d.epoch == 0 { // uint32 wraparound: stale stamps could alias
		clear(d.lineEpoch)
		clear(d.touchEpoch)
		d.epoch = 1
	}
	d.dirtyList = d.dirtyList[:0]
	d.queuedList = d.queuedList[:0]
	d.touchList = d.touchList[:0]
	d.nDirty, d.nQueued = 0, 0

	d.tracer = nil
	d.sink = nil
	d.injector = nil
	d.clock = nil
	d.snapAlloc = nil
	d.opCount = 0
	d.opLimit = 0
	d.barrierCount = 0
	d.barrierOps = d.barrierOps[:0]
	d.internal = 0
	d.closed = false
	d.commitVars = d.commitVars[:0]
	d.cvAtLastOp = 0
	d.cvNorm = nil
	d.cvNormAt = 0
	d.sweep = nil
	d.stats = Stats{}
}

// sameSlice reports whether two byte slices share identical length and
// backing array start — the identity test behind the fast Reset path.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// SetTracer attaches a coverage tracer; PM operations are reported to it
// with their call-site IDs.
func (d *Device) SetTracer(t *instr.Tracer) { d.tracer = t }

// SetSink attaches a trace sink receiving one event per PM operation.
func (d *Device) SetSink(s trace.Sink) { d.sink = s }

// SetInjector installs a failure injector. A nil injector disables
// failure injection.
func (d *Device) SetInjector(fi FailureInjector) { d.injector = fi }

// SetOpLimit bounds the number of PM operations this device will
// execute; exceeding it panics with Hang. Zero disables the limit.
func (d *Device) SetOpLimit(n int) { d.opLimit = n }

// MarkCommitVar annotates [off, off+n) as a commit variable: an
// atomically updated flag/pointer whose recovery-time read of the old
// durable value is the crash-consistency mechanism itself, not a bug.
// This is the analog of XFDetector's commit-variable annotations; the
// cross-failure checker exempts these ranges from its taint analysis.
func (d *Device) MarkCommitVar(off, n int) {
	d.commitVars = append(d.commitVars, Range{Off: off, Len: n})
}

// CommitVars returns the annotated commit-variable ranges, merged. The
// returned slice is memoized device state: treat it as read-only, valid
// until the next MarkCommitVar or Reset.
func (d *Device) CommitVars() []Range {
	if len(d.commitVars) == 0 {
		return nil
	}
	if d.cvNormAt != len(d.commitVars) || d.cvNorm == nil {
		d.cvNorm = append(d.cvNorm[:0], d.commitVars...)
		d.cvNorm = NormalizeRanges(d.cvNorm)
		d.cvNormAt = len(d.commitVars)
	}
	return d.cvNorm
}

// SetClock replaces the simulated-time clock (shared clocks let an
// executor charge multiple devices against one budget).
func (d *Device) SetClock(c *Clock) { d.clock = c }

// Clock returns the device's simulated-time clock.
func (d *Device) Clock() *Clock { return d.clock }

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return len(d.volatile) }

// Stats returns a copy of the device's operation statistics.
func (d *Device) Stats() Stats { return d.stats }

// Barriers returns how many ordering points have executed.
func (d *Device) Barriers() int { return d.barrierCount }

// BarrierOps returns the PM-op index of each executed fence, in order.
// The returned slice is internal device state: treat it as read-only,
// valid until the next Reset (which recycles the backing array).
func (d *Device) BarrierOps() []int {
	return d.barrierOps
}

// SetSnapshotAlloc installs the allocator PersistedSnapshot and
// VolatileSnapshot draw their output buffers from (an arena's buffer
// pool); contents are fully overwritten before return. A nil allocator,
// or one returning a wrong-sized buffer, falls back to make. Reset
// clears the hook.
func (d *Device) SetSnapshotAlloc(f func(n int) []byte) { d.snapAlloc = f }

// Ops returns how many PM operations have executed.
func (d *Device) Ops() int { return d.opCount }

func (d *Device) lineRange(off, n int) (first, last int) {
	return off / LineSize, (off + n - 1) / LineSize
}

func (d *Device) check(off, n int) {
	if d.closed {
		panic(ErrClosed)
	}
	if off < 0 || n < 0 || off+n > len(d.volatile) {
		panic(fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, len(d.volatile)))
	}
}

// pmop performs the common bookkeeping for any PM operation: coverage
// tracking via the caller's call site, trace emission, simulated-time
// accounting, and probabilistic failure injection.
func (d *Device) pmop(kind trace.Kind, off, n int, site instr.SiteID, cost int64) {
	// Commit-variable annotations can arrive between PM operations; a crash
	// injected at op N observes only the registrations made by then. The
	// sweep journal records this count so derived pre-fence crash states
	// resolve the same commit-variable prefix a truncated replay would.
	d.cvAtLastOp = len(d.commitVars)
	d.opCount++
	if d.opLimit > 0 && d.opCount > d.opLimit {
		panic(Hang{Ops: d.opLimit})
	}
	if d.tracer != nil {
		d.tracer.PMOp(site)
	}
	if d.sink != nil {
		d.sink.Emit(trace.Event{
			Kind: kind, Off: off, Len: n, Site: uint32(site), Seq: d.opCount,
			Internal: d.internal > 0,
		})
	}
	if d.clock != nil {
		d.clock.Charge(cost)
	}
	if d.injector != nil && d.injector.AtOp(d.opCount) {
		d.evictQueuedAtCrash()
		panic(Crash{Barrier: -1, Op: d.opCount})
	}
}

// evictQueuedAtCrash models what real hardware does at a power failure:
// cache lines that were flushed but not yet fenced (sitting in the write
// pending queue) MAY have reached the medium — any subset can persist,
// in any order. A deterministic pseudo-random subset (keyed by line and
// crash point) is persisted, so the same crash point always yields the
// same crash image (§4.4 determinism) while missing-fence bugs become
// observable: two unfenced lines can persist independently, exactly the
// reordering a correct persist_barrier() would have prevented. Dirty
// (unflushed) lines never persist — the standard worst-case assumption
// PM testing tools make.
func (d *Device) evictQueuedAtCrash() {
	// queuedList may hold stale entries (and duplicates) for lines that
	// left the queued state; filter against the live state. The copy is
	// idempotent, so duplicate live entries are harmless.
	for _, l32 := range d.queuedList {
		l := int(l32)
		if d.lineEpoch[l] != d.epoch || d.lineState[l] != lineQueued {
			continue
		}
		if !lineSurvivesCrash(l, d.opCount) {
			continue // this line did not make it out of the queue
		}
		start, end := lineBounds(l, len(d.volatile))
		copy(d.persisted[start:end], d.volatile[start:end])
	}
}

// lineStateOf returns the line's effective durability state, treating a
// stale epoch stamp as clean.
func (d *Device) lineStateOf(l int) uint8 {
	if d.lineEpoch[l] != d.epoch {
		return lineClean
	}
	return d.lineState[l]
}

// touch stamps a line as written this execution (the fast-Reset set).
func (d *Device) touch(l int) {
	if d.touchEpoch[l] != d.epoch {
		d.touchEpoch[l] = d.epoch
		d.touchList = append(d.touchList, int32(l))
	}
}

// Store writes p at off. The touched cache lines become dirty (volatile).
// site identifies the calling PM-library call site.
func (d *Device) Store(off int, p []byte, site instr.SiteID) {
	d.check(off, len(p))
	copy(d.volatile[off:], p)
	first, last := d.lineRange(off, len(p))
	for l := first; l <= last; l++ {
		d.touch(l)
		if st := d.lineStateOf(l); st != lineDirty {
			if st == lineQueued {
				d.nQueued--
			}
			d.lineEpoch[l] = d.epoch
			d.lineState[l] = lineDirty
			d.dirtyList = append(d.dirtyList, int32(l))
			d.nDirty++
		}
	}
	d.stats.Stores++
	d.pmop(trace.Store, off, len(p), site, costStore)
}

// NTStore performs a non-temporal store: the data is written and the lines
// are immediately queued for writeback (still requiring a fence to become
// durable), matching MOVNT semantics.
func (d *Device) NTStore(off int, p []byte, site instr.SiteID) {
	d.check(off, len(p))
	copy(d.volatile[off:], p)
	first, last := d.lineRange(off, len(p))
	for l := first; l <= last; l++ {
		d.touch(l)
		if st := d.lineStateOf(l); st != lineQueued {
			if st == lineDirty {
				d.nDirty--
			}
			d.lineEpoch[l] = d.epoch
			d.lineState[l] = lineQueued
			d.queuedList = append(d.queuedList, int32(l))
			d.nQueued++
		}
	}
	d.stats.NTStores++
	d.pmop(trace.NTStore, off, len(p), site, costStore)
}

// Load reads len(p) bytes at off from the volatile view into p.
func (d *Device) Load(off int, p []byte, site instr.SiteID) {
	d.check(off, len(p))
	copy(p, d.volatile[off:])
	d.stats.Loads++
	d.pmop(trace.Load, off, len(p), site, costLoad)
}

// Flush queues the cache lines covering [off, off+n) for writeback
// (CLWB analog). Flushing a clean line is legal and recorded in the trace
// so checkers can flag redundant flushes.
func (d *Device) Flush(off, n int, site instr.SiteID) {
	d.check(off, n)
	first, last := d.lineRange(off, n)
	for l := first; l <= last; l++ {
		if d.lineStateOf(l) == lineDirty {
			d.lineState[l] = lineQueued
			d.queuedList = append(d.queuedList, int32(l))
			d.nDirty--
			d.nQueued++
		}
	}
	d.stats.Flushes++
	d.pmop(trace.Flush, off, n, site, costFlush)
}

// Fence drains all queued lines to the persisted state (SFENCE analog).
// This is an ordering point: barrier-targeted failure injection fires
// here, after the fence's effect is applied, so the crash image reflects
// the state the paper's §3.2 places failures at.
func (d *Device) Fence(site instr.SiteID) {
	if d.closed {
		panic(ErrClosed)
	}
	// The sweep checkpoint is taken at fence entry, before the drain: at
	// this instant the device holds exactly the state an op-targeted crash
	// at the previous PM operation would see, and the queued set is exactly
	// the delta this fence is about to persist.
	var cp *Checkpoint
	if d.sweep != nil {
		cp = d.captureCheckpoint()
	}
	if d.nQueued > 0 {
		for _, l32 := range d.queuedList {
			l := int(l32)
			if d.lineEpoch[l] == d.epoch && d.lineState[l] == lineQueued {
				start, end := lineBounds(l, len(d.volatile))
				copy(d.persisted[start:end], d.volatile[start:end])
				d.lineState[l] = lineClean
			}
		}
		d.nQueued = 0
	}
	d.queuedList = d.queuedList[:0]
	d.barrierCount++
	d.stats.Fences++
	d.pmop(trace.Fence, 0, 0, site, costFence)
	d.barrierOps = append(d.barrierOps, d.opCount)
	if cp != nil {
		// Recorded only after the fence's own pmop succeeded: if that op
		// crashed or hit the hang limit, no barrier was reached.
		cp.Barrier = d.barrierCount
		cp.Op = d.opCount
		d.sweep.cps = append(d.sweep.cps, *cp)
		if d.clock != nil {
			d.clock.ChargeSweepCheckpoint(len(cp.Delta))
		}
	}
	if d.injector != nil && d.injector.AtBarrier(d.barrierCount) {
		// The fence's own drain already happened; anything queued by the
		// fence's instrumentation op itself is handled like any crash.
		d.evictQueuedAtCrash()
		panic(Crash{Barrier: d.barrierCount, Op: d.opCount})
	}
}

// PushInternal marks the start of a PM-library metadata section: events
// emitted until the matching PopInternal carry the Internal flag.
func (d *Device) PushInternal() { d.internal++ }

// PopInternal ends a metadata section started by PushInternal.
func (d *Device) PopInternal() {
	if d.internal > 0 {
		d.internal--
	}
}

// LibOp records a library-level PM operation (transaction begin, undo-log
// snapshot, allocation, ...) against the device's coverage, trace, and
// failure-injection machinery without moving any data. The paper tracks PM
// operations at PM-library function granularity (§3.3), so these count as
// PM-path nodes exactly like loads and stores.
func (d *Device) LibOp(kind trace.Kind, off, n int, site instr.SiteID) {
	if d.closed {
		panic(ErrClosed)
	}
	d.pmop(kind, off, n, site, costLoad)
}

// DirtyLines returns the number of lines written but not yet flushed.
func (d *Device) DirtyLines() int { return d.nDirty }

// QueuedLines returns the number of lines flushed but not yet fenced.
func (d *Device) QueuedLines() int { return d.nQueued }

// linesIn collects into buf the indices of every line currently dirty
// and/or queued, sorted ascending and deduplicated. The transition lists
// are lazy-stale, so entries are filtered against the live line state;
// a line can legitimately appear twice in one list (dirty → queued →
// dirty), hence the dedup.
func (d *Device) linesIn(buf []int, wantDirty, wantQueued bool) []int {
	buf = buf[:0]
	if wantDirty && d.nDirty > 0 {
		for _, l32 := range d.dirtyList {
			l := int(l32)
			if d.lineEpoch[l] == d.epoch && d.lineState[l] == lineDirty {
				buf = append(buf, l)
			}
		}
	}
	if wantQueued && d.nQueued > 0 {
		for _, l32 := range d.queuedList {
			l := int(l32)
			if d.lineEpoch[l] == d.epoch && d.lineState[l] == lineQueued {
				buf = append(buf, l)
			}
		}
	}
	sort.Ints(buf)
	out := buf[:0]
	for i, l := range buf {
		if i == 0 || l != buf[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// UnpersistedRanges returns the byte ranges whose volatile content differs
// from the persisted content — the data that would be lost by a failure
// right now. The cross-failure checker uses this as its taint set.
func (d *Device) UnpersistedRanges() []Range {
	d.scratchA = d.linesIn(d.scratchA, true, true)
	return diffRangesOverLines(d.scratchA, d.volatile, d.persisted)
}

// snapBuf returns a device-sized output buffer, preferring the installed
// snapshot allocator (arena pool) over a fresh allocation.
func (d *Device) snapBuf() []byte {
	if d.snapAlloc != nil {
		if b := d.snapAlloc(len(d.persisted)); len(b) == len(d.persisted) {
			return b
		}
	}
	return make([]byte, len(d.persisted))
}

// PersistedSnapshot returns a copy of the durable state — the crash image
// a failure at this instant would leave behind.
func (d *Device) PersistedSnapshot() []byte {
	out := d.snapBuf()
	copy(out, d.persisted)
	return out
}

// VolatileSnapshot returns a copy of the program-visible state.
func (d *Device) VolatileSnapshot() []byte {
	out := d.snapBuf()
	copy(out, d.volatile)
	return out
}

// Close persists all outstanding writes (as an orderly munmap/close would)
// and marks the device closed. It returns the final durable contents.
func (d *Device) Close() []byte {
	if !d.closed {
		if d.nDirty > 0 || d.nQueued > 0 {
			// Every non-clean line has at least one (possibly stale)
			// entry in one of the two transition lists; draining any line
			// that is still dirty or queued covers them all without a
			// full-device scan or temporary set.
			drain := func(list []int32) {
				for _, l32 := range list {
					l := int(l32)
					if d.lineEpoch[l] == d.epoch && d.lineState[l] != lineClean {
						start, end := lineBounds(l, len(d.volatile))
						copy(d.persisted[start:end], d.volatile[start:end])
						d.lineState[l] = lineClean
					}
				}
			}
			drain(d.dirtyList)
			drain(d.queuedList)
			d.nDirty, d.nQueued = 0, 0
		}
		d.dirtyList = d.dirtyList[:0]
		d.queuedList = d.queuedList[:0]
		if d.clock != nil {
			d.clock.Charge(costClose)
		}
		d.closed = true
	}
	return d.PersistedSnapshot()
}

// Range is a byte range on the device.
type Range struct {
	Off int
	Len int
}

// End returns the exclusive end offset.
func (r Range) End() int { return r.Off + r.Len }

// Overlaps reports whether two ranges share any byte.
func (r Range) Overlaps(o Range) bool {
	return r.Off < o.End() && o.Off < r.End()
}

// Contains reports whether r fully covers o.
func (r Range) Contains(o Range) bool {
	return r.Off <= o.Off && o.End() <= r.End()
}

// NormalizeRanges sorts and merges overlapping or adjacent ranges.
func NormalizeRanges(rs []Range) []Range {
	if len(rs) <= 1 {
		return rs
	}
	// Most lists are short and nearly sorted, but a looping execution can
	// mark the same few commit variables hundreds of thousands of times,
	// so the sort must not be quadratic.
	slices.SortFunc(rs, func(a, b Range) int { return cmp.Compare(a.Off, b.Off) })
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Off <= last.End() {
			if r.End() > last.End() {
				last.Len = r.End() - last.Off
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}
