package pmem

import "sort"

// This file implements the copy-on-write snapshot layer behind the
// single-pass crash-image sweep. The paper's §3.2 places a failure at
// every ordering point of an execution; the naive realization re-executes
// the whole pre-failure input once per barrier and takes a full-device
// snapshot each time — O(barriers × ops) execution plus
// O(barriers × poolsize) copying. But between two consecutive fences the
// persisted state changes only on the cache lines the second fence
// drains, so ONE instrumented execution can journal, per barrier, exactly
// that delta, and every barrier's crash image is then materialized by
// applying deltas to a base copy — the incremental crash-state derivation
// that representative-testing systems (Gu et al., WITCHER) use to make
// crash-state enumeration scale.
//
// The journal also records everything else the per-barrier replay used to
// observe at the crash point, so the derived results are byte-identical
// to the re-execution path:
//
//   - the taint set (volatile-but-never-persisted byte ranges) at the
//     barrier, for the cross-failure checker;
//   - the pre-fence state: which flushed-but-unfenced lines the
//     deterministic eviction model would persist for a crash at the PM
//     operation just before the fence, plus that state's taint set —
//     the "missing persist_barrier" windows xfd sweeps;
//   - the commit-variable registration count at both points, so the
//     commit-variable exemption sees exactly the annotations a truncated
//     replay would have registered.

// LineDelta is one cache line's post-fence persisted contents.
type LineDelta struct {
	// Line is the cache-line index (byte offset = Line * LineSize).
	Line int
	// Data is the line's persisted bytes (shorter than LineSize only for
	// the device's final partial line).
	Data []byte
}

// Checkpoint is the journal record for one ordering point.
type Checkpoint struct {
	// Barrier is the 1-based ordering-point index; Op is the PM-operation
	// index of the fence itself. A barrier-targeted failure at this point
	// unwinds with Crash{Barrier, Op}.
	Barrier int
	Op      int
	// PreOp is the PM-operation index of the last operation before the
	// fence (0 if the fence is the execution's first PM operation). An
	// op-targeted failure at PreOp is the paper's "just before the
	// ordering point" placement.
	PreOp int
	// Delta lists the cache lines this fence drained to the persisted
	// state, in line order: applying Delta to the previous barrier's
	// image yields this barrier's crash image.
	Delta []LineDelta
	// PreDelta is the subset of the write-pending queue that the
	// deterministic eviction model persists for a crash at PreOp (same
	// bytes as the corresponding Delta entries; eviction is keyed by
	// (line, PreOp) exactly like Device.evictQueuedAtCrash).
	PreDelta []LineDelta
	// Lost is the taint set at the barrier crash: byte ranges whose
	// volatile content never became durable (dirty lines).
	Lost []Range
	// PreLost is the taint set at the PreOp crash: dirty lines plus the
	// non-evicted part of the write-pending queue.
	PreLost []Range
	// CommitVarCount / PreCommitVarCount are how many commit-variable
	// ranges had been registered by the barrier / by PreOp.
	CommitVarCount    int
	PreCommitVarCount int
}

// Sweep is the copy-on-write journal of one instrumented execution: a
// base image plus one Checkpoint per ordering point.
type Sweep struct {
	size       int
	base       []byte
	cps        []Checkpoint
	commitVars []Range // raw registration order, for prefix slicing
}

// Barriers returns the number of journaled ordering points.
func (s *Sweep) Barriers() int { return len(s.cps) }

// Size returns the device size the journal was taken over.
func (s *Sweep) Size() int { return s.size }

// Checkpoint returns the journal record for barrier b (1-based).
func (s *Sweep) Checkpoint(b int) *Checkpoint { return &s.cps[b-1] }

// CommitVarsAt returns the normalized commit-variable ranges among the
// first n registrations — what Device.CommitVars would have returned at
// a crash unwound after n registrations.
func (s *Sweep) CommitVarsAt(n int) []Range {
	if n > len(s.commitVars) {
		n = len(s.commitVars)
	}
	return NormalizeRanges(append([]Range(nil), s.commitVars[:n]...))
}

// BeginSweep attaches a copy-on-write journal to the device. The current
// persisted state becomes the sweep's base image; every subsequent fence
// records one Checkpoint. Journaling is an observer: it never changes
// what the program reads or what a failure would persist.
func (d *Device) BeginSweep() {
	d.sweep = &Sweep{
		size: len(d.persisted),
		base: append([]byte(nil), d.persisted...),
	}
}

// EndSweep detaches and returns the journal (nil if BeginSweep was never
// called), snapshotting the commit-variable registrations so checkpoint
// prefixes can be resolved after the device is gone.
func (d *Device) EndSweep() *Sweep {
	s := d.sweep
	d.sweep = nil
	if s != nil {
		s.commitVars = append([]Range(nil), d.commitVars...)
	}
	return s
}

// lineSurvivesCrash is the deterministic eviction decision for one
// flushed-but-unfenced line at a crash at PM-operation op — the single
// source of truth shared by evictQueuedAtCrash and the sweep journal, so
// derived pre-fence images match injected-crash images bit for bit.
func lineSurvivesCrash(l, op int) bool {
	x := uint64(l)*0x9e3779b97f4a7c15 ^ uint64(op)*0xff51afd7ed558ccd
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x&1 == 1
}

// lineBounds clips line l to the device size.
func lineBounds(l, size int) (start, end int) {
	start = l * LineSize
	end = start + LineSize
	if end > size {
		end = size
	}
	return start, end
}

// diffRangesOverLines byte-diffs volatile against persisted over the
// given lines, producing the same normalized ranges UnpersistedRanges
// yields for that line set.
func diffRangesOverLines(lines []int, volatile, persisted []byte) []Range {
	var rs []Range
	for _, l := range lines {
		start, end := lineBounds(l, len(volatile))
		for i := start; i < end; i++ {
			if volatile[i] != persisted[i] {
				j := i
				for j < end && volatile[j] != persisted[j] {
					j++
				}
				rs = append(rs, Range{Off: i, Len: j - i})
				i = j
			}
		}
	}
	return NormalizeRanges(rs)
}

// captureCheckpoint computes a fence's journal record. It runs at fence
// entry, before the write-pending queue is drained: at that instant the
// device state is exactly the state an op-targeted failure at the
// previous PM operation would have observed, and the queued set is
// exactly what the fence is about to persist. Barrier/Op are filled in by
// the caller once the fence's own PM operation has executed.
func (d *Device) captureCheckpoint() *Checkpoint {
	cp := &Checkpoint{
		PreOp:             d.opCount,
		CommitVarCount:    len(d.commitVars),
		PreCommitVarCount: d.cvAtLastOp,
	}
	// Sorted, deduplicated snapshots of the live queued and dirty sets,
	// filtered out of the lazy-stale transition lists into device-owned
	// scratch buffers (the journal's own Delta/Lost data is what escapes).
	d.scratchA = d.linesIn(d.scratchA, false, true)
	d.scratchB = d.linesIn(d.scratchB, true, false)
	queued, dirty := d.scratchA, d.scratchB

	// Delta: every queued line is about to be drained; its post-fence
	// persisted bytes equal its current volatile bytes. PreDelta: the
	// deterministic eviction subset for a crash at PreOp.
	for _, l := range queued {
		start, end := lineBounds(l, len(d.volatile))
		data := append([]byte(nil), d.volatile[start:end]...)
		cp.Delta = append(cp.Delta, LineDelta{Line: l, Data: data})
		if lineSurvivesCrash(l, d.opCount) {
			cp.PreDelta = append(cp.PreDelta, LineDelta{Line: l, Data: data})
		}
	}

	// Lost (barrier crash): after the drain only dirty lines differ from
	// the persisted state; the drain never touches them (dirty and queued
	// are disjoint), so the diff can be taken against the pre-drain
	// persisted bytes.
	cp.Lost = diffRangesOverLines(dirty, d.volatile, d.persisted)

	// PreLost (crash at PreOp): dirty lines plus the non-evicted part of
	// the queue; evicted lines persist their volatile bytes and drop out
	// of the diff, exactly as after evictQueuedAtCrash.
	d.scratchC = append(d.scratchC[:0], dirty...)
	for _, l := range queued {
		if !lineSurvivesCrash(l, d.opCount) {
			d.scratchC = append(d.scratchC, l)
		}
	}
	sort.Ints(d.scratchC)
	cp.PreLost = diffRangesOverLines(d.scratchC, d.volatile, d.persisted)
	return cp
}

// SweepCursor is the one walker over a Sweep: it derives every crash
// point's state on a single working copy of the base image, applying
// each barrier's delta in place. ImageData and PreFenceData copy the
// state out (the crash images); Barrier and PreFence fingerprint it
// without a copy. Sequential ascending access is O(delta) per step;
// seeking backwards rebuilds from the base.
//
// A pre-fence point is barrier b-1's state with barrier b's PreDelta
// on top, and the cursor applies that PreDelta in place too: PreDelta
// is a subset of Delta with identical bytes, so moving on to barrier b
// or later rewrites those lines unchanged and needs no undo. Only a
// seek back to barrier b-1's own state rebuilds.
type SweepCursor struct {
	s   *Sweep
	cur []byte
	// pos counts barriers applied to cur; pre says barrier pos+1's
	// PreDelta sits on top of them.
	pos int
	pre bool
	// appliedLines counts delta lines applied since creation (monotonic,
	// including rebuilds) — the unit the simulated clock charges for
	// materialization.
	appliedLines int
	// hasher, once TrackHash is called, holds cur's page digests; every
	// applied delta marks its pages dirty.
	hasher *ImageHasher
	// Memoized CommitVarsAt slice for fingerprints: consecutive points
	// usually share the registration count.
	cvN      int
	cvRanges []Range
}

// Cursor returns a new cursor positioned at the base image (barrier 0).
func (s *Sweep) Cursor() *SweepCursor {
	return &SweepCursor{s: s, cur: append([]byte(nil), s.base...), cvN: -1}
}

// AppliedLines returns the cumulative count of delta lines applied.
func (c *SweepCursor) AppliedLines() int { return c.appliedLines }

func (c *SweepCursor) apply(ds []LineDelta) {
	for _, ld := range ds {
		copy(c.cur[ld.Line*LineSize:], ld.Data)
		c.appliedLines++
	}
	if c.hasher != nil {
		c.hasher.markLines(ds)
	}
}

// TrackHash makes the cursor keep the page digests of its working copy,
// so ImageHash and the fingerprints rehash only the pages the deltas
// applied since the previous hash touched.
func (c *SweepCursor) TrackHash() {
	if c.hasher == nil {
		c.hasher = NewImageHasher(c.cur)
	}
}

// ImageHash returns the content hash (zero UUID, the given layout) of
// the state the cursor stands at — what ImageData or PreFenceData last
// returned — and false when TrackHash was never called.
func (c *SweepCursor) ImageHash(layout string) ([32]byte, bool) {
	if c.hasher == nil {
		return [32]byte{}, false
	}
	return c.hasher.Sum([16]byte{}, layout, c.cur), true
}

// seek brings the working copy to the state after barrier b, with
// barrier b+1's PreDelta on top when pre is set. A repeated pre-fence
// seek re-applies the PreDelta, so it is charged like the first.
func (c *SweepCursor) seek(b int, pre bool) {
	if b < c.pos || (b == c.pos && c.pre && !pre) {
		copy(c.cur, c.s.base)
		c.pos, c.pre = 0, false
		if c.hasher != nil {
			c.hasher.markAll()
		}
	}
	for ; c.pos < b; c.pos++ {
		c.apply(c.s.cps[c.pos].Delta)
	}
	if c.pre = pre; pre {
		c.apply(c.s.cps[b].PreDelta)
	}
}

// ImageData returns a copy of the persisted state after barrier b — the
// crash image a barrier-targeted failure at b leaves behind.
func (c *SweepCursor) ImageData(b int) []byte {
	c.seek(b, false)
	return append([]byte(nil), c.cur...)
}

// PreFenceData returns a copy of the persisted state for a crash at
// barrier b's PreOp: the state after barrier b-1 with the deterministic
// eviction subset of the write-pending queue applied. Calling it before
// ImageData(b) keeps the cursor moving strictly forward.
func (c *SweepCursor) PreFenceData(b int) []byte {
	c.seek(b-1, true)
	return append([]byte(nil), c.cur...)
}

// PreFence fingerprints the crash at barrier b's pre-fence op — the
// state PreFenceData(b) materializes. ok is false when the fence is the
// execution's first PM operation (no operation to fail at), matching
// SweepResult.PreFenceCrash's guard. layout must be the layout of the
// materialized images, so ImageHash agrees with Image.Hash.
func (c *SweepCursor) PreFence(b int, layout string) (fp Fingerprint, ok bool) {
	cp := &c.s.cps[b-1]
	if cp.PreOp < 1 {
		return Fingerprint{}, false
	}
	c.seek(b-1, true)
	return c.point(layout, cp.PreLost, cp.PreCommitVarCount), true
}

// Barrier fingerprints the crash at barrier b — the state ImageData(b)
// materializes.
func (c *SweepCursor) Barrier(b int, layout string) Fingerprint {
	c.seek(b, false)
	cp := &c.s.cps[b-1]
	return c.point(layout, cp.Lost, cp.CommitVarCount)
}

// point fingerprints the working copy's current state. cvCount is the
// registration count at the point; the fingerprint carries the
// normalized range count so it matches what a materialized Result's
// CommitVars would expose.
func (c *SweepCursor) point(layout string, lost []Range, cvCount int) Fingerprint {
	c.TrackHash()
	if cvCount != c.cvN {
		c.cvRanges, c.cvN = c.s.CommitVarsAt(cvCount), cvCount
	}
	return Fingerprint{
		ImageHash: c.hasher.Sum([16]byte{}, layout, c.cur),
		TaintSig:  TaintSignature(lost),
		CVCount:   len(c.cvRanges),
		CVHash:    CommitVarSignature(c.cvRanges, c.cur),
	}
}
