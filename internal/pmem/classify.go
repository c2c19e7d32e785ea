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
// The sweep's cursor (SweepCursor.Barrier and PreFence) computes, per
// crash point, a Fingerprint assembled entirely from data the journal
// already holds — no image is ever copied out:
//
//   - ImageHash: the content hash of the crash state, bit-identical to
//     Image.Hash on the materialized image (zero UUID). The cursor walks
//     ONE working buffer forward through the journal, applying each
//     point's delta in place and rehashing only the 4 KiB pages the
//     delta touched (ImageHasher page digests).
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
// fingerprint and the materialized-Result side derive the same key for
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
