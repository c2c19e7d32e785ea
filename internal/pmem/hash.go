package pmem

import (
	"crypto/sha256"
	"encoding/binary"
)

// PageSize is the page granularity of the image content hash.
const PageSize = 4096

// linesPerPage is how many cache lines one hash page spans.
const linesPerPage = PageSize / LineSize

// The image content hash — the identity PMFuzz's image reduction
// (§4.5 step ④) deduplicates on and the image store keys blobs by — is
// a hash over page digests:
//
//	SHA-256(uuid ‖ le64(len(layout)) ‖ layout ‖ le64(len(data)) ‖
//	        SHA-256(page 0) ‖ … ‖ SHA-256(page n−1))
//
// with PageSize pages (the last one may be short). A full hash costs
// one SHA-256 pass over the data, like a flat hash, but an image
// derived from another by a few cache-line writes — a sweep point from
// its predecessor — rehashes only the pages those writes touch plus the
// 32-bytes-per-page root. Any collision-resistant hash serves the dedup.

// ContentHash returns the content hash of an image with the given
// identity and data: the Sum of a fresh ImageHasher, so a full hash and
// an incremental one are the same definition. Image.Hash, the sweep and
// the image store's checks all compute it.
func ContentHash(uuid [16]byte, layout string, data []byte) [32]byte {
	return NewImageHasher(data).Sum(uuid, layout, data)
}

func pageCount(size int) int { return (size + PageSize - 1) / PageSize }

func rootHeaderLen(layout string) int { return 16 + 8 + len(layout) + 8 }

func appendRootHeader(b []byte, uuid [16]byte, layout string, size int) []byte {
	b = append(b, uuid[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(layout)))
	b = append(b, layout...)
	return binary.LittleEndian.AppendUint64(b, uint64(size))
}

// rootReserve is the header room an ImageHasher keeps in front of its
// digests; layouts longer than rootReserve-32 bytes regrow it once.
const rootReserve = 64

// ImageHasher keeps the page digests of one data buffer that changes
// by small writes, so its content hash after a change rehashes only the
// pages marked dirty since the previous Sum. The sweep's SweepCursor
// feeds it its journal deltas (markLines) and its rebuilds (markAll).
// A missing mark makes Sum stale, so every write to the buffer must be
// marked.
type ImageHasher struct {
	size int
	// root is the root preimage: header room, then one digest per page
	// from root[hdr:]. Sum writes the header right in front of the
	// digests, so no call copies them.
	root  []byte
	hdr   int
	dirty []bool
	marks []int // dirty pages, in marking order
}

// NewImageHasher digests every page of data.
func NewImageHasher(data []byte) *ImageHasher {
	n := pageCount(len(data))
	h := &ImageHasher{
		size:  len(data),
		root:  make([]byte, rootReserve+n*sha256.Size),
		hdr:   rootReserve,
		dirty: make([]bool, n),
	}
	for p := range n {
		h.rehash(p, data)
	}
	return h
}

func (h *ImageHasher) rehash(p int, data []byte) {
	off := p * PageSize
	sum := sha256.Sum256(data[off:min(off+PageSize, len(data))])
	copy(h.root[h.hdr+p*sha256.Size:], sum[:])
}

func (h *ImageHasher) mark(p int) {
	if !h.dirty[p] {
		h.dirty[p] = true
		h.marks = append(h.marks, p)
	}
}

// markLines marks the pages of the delta's cache lines dirty.
func (h *ImageHasher) markLines(ds []LineDelta) {
	for _, ld := range ds {
		h.mark(ld.Line / linesPerPage)
	}
}

// markAll marks every page dirty, for a buffer rebuilt wholesale.
func (h *ImageHasher) markAll() {
	for p := range h.dirty {
		h.mark(p)
	}
}

// Sum rehashes the dirty pages of data — the buffer the hasher tracks,
// its size unchanged — and returns the content hash of an image with
// the given identity and that data.
func (h *ImageHasher) Sum(uuid [16]byte, layout string, data []byte) [32]byte {
	for _, p := range h.marks {
		h.rehash(p, data)
		h.dirty[p] = false
	}
	h.marks = h.marks[:0]
	if n := rootHeaderLen(layout); n > h.hdr {
		h.root = append(make([]byte, n), h.root[h.hdr:]...)
		h.hdr = n
	}
	start := h.hdr - rootHeaderLen(layout)
	appendRootHeader(h.root[start:start], uuid, layout, h.size)
	return sha256.Sum256(h.root[start:])
}
