package pmem

// This file implements the equivalence layer between the crash-image
// sweep and its consumers. The sweep (sweep.go) makes *enumerating* crash
// states cheap — one journaled execution, O(delta) per barrier — but the
// paper's consumers still pay per state: the differential oracle recovers
// and dumps every image, the cross-failure detector re-executes recovery
// per point. Representative-testing systems (Pathfinder, WITCHER) observe
// that most crash states of one execution are behaviorally equivalent, so
// checking one representative per equivalence class preserves bug-finding
// accuracy at a fraction of the cost.
//
// The Partitioner computes, per crash point, a Fingerprint assembled
// entirely from data the journal already holds — no image is ever
// materialized:
//
//   - ImageHash: the content hash of the crash state, bit-identical to
//     Image.Hash on the materialized image (zero UUID). Computed by
//     walking ONE working buffer forward through the journal, applying
//     each point's delta in place and rehashing only the 4 KiB pages
//     the delta touched (ImageHasher page digests).
//   - TaintSig: the shape of the taint set (Checkpoint.Lost / PreLost) —
//     which byte ranges were written but never persisted.
//   - CVCount/CVHash: how many commit-variable ranges were registered at
//     the point, and the durable content of those ranges in the crash
//     state — the data recovery actually dispatches on.
//
// Consumers group points whose relevant fingerprint components match and
// validate one representative per class; the per-consumer key choice and
// the fallback that preserves exactness live with the consumers.

// Fingerprint identifies one crash point's recovery-relevant state,
// derived from the sweep journal without materializing the image.
type Fingerprint struct {
	// ImageHash is the crash image's content hash (equal to
	// Image{Layout: layout, Data: data}.Hash() with a zero UUID).
	ImageHash [32]byte
	// TaintSig digests the taint-set shape: FNV-1a over the (Off, Len)
	// pairs of the point's lost ranges.
	TaintSig uint64
	// CVCount is the number of normalized commit-variable ranges visible
	// at the point (what Result.CommitVars holds on the materialized
	// crash); CVHash digests those ranges and their durable bytes in the
	// crash state.
	CVCount int
	CVHash  uint64
}

// Partitioner fingerprints a Sweep's crash points in cursor order. It
// keeps a single working buffer: for each barrier it applies PreDelta in
// place, fingerprints the pre-fence state, then applies the full Delta on
// top (PreDelta is a subset of Delta with identical bytes, so the
// re-application is a no-op) and fingerprints the barrier state. Every
// applied delta marks its pages dirty in the hasher, so a fingerprint
// rehashes only the pages changed since the previous one. Forward access
// is O(delta) per point; seeking backwards rebuilds from the base.
type Partitioner struct {
	s      *Sweep
	layout string
	hasher *ImageHasher
	buf    []byte
	// pos counts barriers applied to buf; prePending is the barrier whose
	// PreDelta is applied on top of pos (0 = none).
	pos        int
	prePending int
	// appliedLines counts delta lines applied (rebuilds included) — the
	// unit the simulated clock charges for materialization, mirroring
	// SweepCursor.
	appliedLines int
	// Memoized CommitVarsAt slice: consecutive points usually share the
	// registration count.
	cvN      int
	cvRanges []Range
}

// Partition returns a fingerprinting walker over the sweep's crash
// points. layout must match the layout of the images the sweep's cursor
// materializes, so ImageHash values agree with Image.Hash.
func (s *Sweep) Partition(layout string) *Partitioner {
	buf := append([]byte(nil), s.base...)
	return &Partitioner{
		s:      s,
		layout: layout,
		hasher: NewImageHasher(buf),
		buf:    buf,
		cvN:    -1,
	}
}

// AppliedLines returns the cumulative count of delta lines applied.
func (p *Partitioner) AppliedLines() int { return p.appliedLines }

func (p *Partitioner) applyDelta(ds []LineDelta) {
	for _, ld := range ds {
		copy(p.buf[ld.Line*LineSize:], ld.Data)
		p.appliedLines++
	}
	p.hasher.markLines(ds)
}

// ensure brings buf to the persisted state after barrier b-1 (possibly
// with barrier b's own PreDelta already applied), rebuilding from the
// base on backward or out-of-order access.
func (p *Partitioner) ensure(b int) {
	if (p.prePending != 0 && p.prePending != b) || p.pos > b-1 {
		copy(p.buf, p.s.base)
		p.hasher.markAll()
		p.pos, p.prePending = 0, 0
	}
	for p.pos < b-1 {
		p.applyDelta(p.s.cps[p.pos].Delta)
		p.pos++
	}
}

// PreFence fingerprints the crash at barrier b's pre-fence op — the
// state SweepCursor.PreFenceData(b) materializes. ok is false when the
// fence is the execution's first PM operation (no operation to fail at),
// matching SweepResult.PreFenceCrash's guard. Call before Barrier(b) to
// keep the walk strictly forward.
func (p *Partitioner) PreFence(b int) (fp Fingerprint, ok bool) {
	cp := p.s.cps[b-1]
	if cp.PreOp < 1 {
		return Fingerprint{}, false
	}
	p.ensure(b)
	p.applyDelta(cp.PreDelta)
	p.prePending = b
	return p.point(cp.PreLost, cp.PreCommitVarCount), true
}

// Barrier fingerprints the crash at barrier b — the state
// SweepCursor.ImageData(b) materializes.
func (p *Partitioner) Barrier(b int) Fingerprint {
	p.ensure(b)
	// The full Delta re-applies any pending PreDelta lines with identical
	// bytes, so a preceding PreFence(b) never needs undoing.
	p.applyDelta(p.s.cps[b-1].Delta)
	p.pos, p.prePending = b, 0
	return p.point(p.s.cps[b-1].Lost, p.s.cps[b-1].CommitVarCount)
}

// point assembles the fingerprint of buf's current state. cvCount is the
// registration count at the point; the fingerprint carries the
// normalized range count so it matches what a materialized Result's
// CommitVars would expose.
func (p *Partitioner) point(lost []Range, cvCount int) Fingerprint {
	rs := p.cvRangesAt(cvCount)
	return Fingerprint{
		ImageHash: p.hasher.Sum([16]byte{}, p.layout, p.buf),
		TaintSig:  TaintSignature(lost),
		CVCount:   len(rs),
		CVHash:    CommitVarSignature(rs, p.buf),
	}
}

func (p *Partitioner) cvRangesAt(n int) []Range {
	if n != p.cvN {
		p.cvRanges, p.cvN = p.s.CommitVarsAt(n), n
	}
	return p.cvRanges
}

// FNV-1a, 64-bit. Hand-rolled so signatures are deterministic,
// allocation-free, and independent of hash/fnv's Write error plumbing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = (h ^ (u & 0xff)) * fnvPrime64
		u >>= 8
	}
	return h
}

func fnvBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// SemanticClassKey folds the coordinates the oracle's verdict depends on
// — command prefix, commit-variable range count, and the commit-variable
// content signature — into one class key. Both the journal-side
// Partitioner and the materialized-Result side derive the same key for
// the same crash point.
func SemanticClassKey(commands, cvCount int, cvHash uint64) uint64 {
	h := fnvInt(fnvOffset64, commands)
	h = fnvInt(h, cvCount)
	return fnvInt(h, int(cvHash))
}

// TaintSignature digests a lost-range set's shape.
func TaintSignature(rs []Range) uint64 {
	h := uint64(fnvOffset64)
	for _, r := range rs {
		h = fnvInt(h, r.Off)
		h = fnvInt(h, r.Len)
	}
	return h
}

// CommitVarSignature digests commit-variable ranges together with their
// durable content in data — the bytes recovery dispatches on. Ranges
// extending past the data (defensive; registration is device-bounded)
// are clipped.
func CommitVarSignature(rs []Range, data []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, r := range rs {
		h = fnvInt(h, r.Off)
		h = fnvInt(h, r.Len)
		lo, hi := r.Off, r.End()
		if lo < 0 {
			lo = 0
		}
		if hi > len(data) {
			hi = len(data)
		}
		if lo < hi {
			h = fnvBytes(h, data[lo:hi])
		}
	}
	return h
}
