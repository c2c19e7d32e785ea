package imgstore

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"pmfuzz/internal/pmem"
)

// Store-to-store blob transfer, used by the campaign sync layer and by
// session checkpointing. Blobs travel in their stored encoding — a full
// blob ships as flate-compressed serialized image bytes, a delta blob as
// its base ID plus compressed runs — so a sync never re-compresses and a
// crash image costs O(changed lines) on the wire. Import verifies every
// blob against its content-addressed ID before admitting it, without
// constructing a pmem.Image for full blobs: pmem.SerializedHash checks
// the inflated serialization and hashes it in place.

// ErrMissingDeltaBase reports a delta blob whose base image is not in
// the store yet. The importer retries it after the base arrives.
var ErrMissingDeltaBase = errors.New("imgstore: delta base not in store")

// Hex renders the full content hash, the wire name of a synced blob.
func (id ID) Hex() string { return hex.EncodeToString(id[:]) }

// ParseID decodes a full 64-char hex content hash.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return ID{}, fmt.Errorf("imgstore: bad image ID %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// IDs returns every stored image ID in sorted order, so iteration during
// checkpointing and sync publication is deterministic.
func (s *Store) IDs() []ID {
	s.mu.Lock()
	ids := make([]ID, 0, len(s.blobs))
	for id := range s.blobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool {
		return string(ids[i][:]) < string(ids[j][:])
	})
	return ids
}

// ExportBlob returns the stored blob for id in its native encoding, plus
// the base ID when it is delta-encoded (hasBase true). The returned
// slice aliases store memory and must not be mutated.
func (s *Store) ExportBlob(id ID) (blob []byte, baseID ID, hasBase bool, ok bool) {
	b, ok := s.blob(id)
	if !ok {
		return nil, ID{}, false, false
	}
	if len(b) > 1+len(ID{}) && b[0] == blobDelta {
		copy(baseID[:], b[1:])
		return b, baseID, true, true
	}
	return b, ID{}, false, true
}

// ExportBlobFull returns a full (non-delta) blob for id, re-encoding a
// delta-stored image when necessary — the fallback for shipping a crash
// image whose base the peer does not hold.
func (s *Store) ExportBlobFull(id ID) ([]byte, error) {
	b, ok := s.blob(id)
	if !ok {
		return nil, fmt.Errorf("imgstore: unknown image %s", id)
	}
	if len(b) > 0 && b[0] == blobFull {
		return b, nil
	}
	img, err := s.decode(id, nil)
	if err != nil {
		return nil, err
	}
	compressed, err := s.deflate(img.Marshal())
	if err != nil {
		return nil, err
	}
	out := append(make([]byte, 0, 1+len(compressed)), blobFull)
	return append(out, compressed...), nil
}

// DeltaBase extracts the base image ID from a raw delta blob, so an
// importer holding only wire bytes can fetch the base before retrying.
// hasBase is false for full blobs; an error means the blob is corrupt.
func DeltaBase(blob []byte) (baseID ID, hasBase bool, err error) {
	if len(blob) == 0 {
		return ID{}, false, errors.New("imgstore: empty blob")
	}
	switch blob[0] {
	case blobFull:
		return ID{}, false, nil
	case blobDelta:
		if len(blob) < 1+len(baseID) {
			return ID{}, false, errors.New("imgstore: corrupt delta blob: truncated header")
		}
		copy(baseID[:], blob[1:])
		return baseID, true, nil
	default:
		return ID{}, false, fmt.Errorf("imgstore: unknown blob tag %d", blob[0])
	}
}

// ImportBlob admits a peer's blob under the given content hash. The blob
// is verified before insertion: a full blob's inflated serialization
// must be a valid image (magic, lengths, checksum) hashing to id,
// checked without building a pmem.Image, and a delta blob must
// reconstruct to an image hashing to id. A duplicate counts as
// a dedup hit and costs no decompression. Returns whether the image was
// new. A delta blob whose base is absent fails with ErrMissingDeltaBase
// and leaves the store unchanged.
func (s *Store) ImportBlob(id ID, blob []byte) (fresh bool, err error) {
	if len(blob) == 0 {
		return false, fmt.Errorf("imgstore: empty import blob %s", id)
	}
	s.mu.Lock()
	s.stats.puts.Add(1)
	if _, dup := s.blobs[id]; dup {
		s.stats.dedups.Add(1)
		s.mu.Unlock()
		return false, nil
	}
	s.mu.Unlock()

	var rawSize int64
	isDelta := false
	switch blob[0] {
	case blobFull:
		n, err := s.verifyFullBlob(id, blob)
		if err != nil {
			return false, err
		}
		rawSize = n
	case blobDelta:
		var baseID ID
		if len(blob) < 1+len(baseID) {
			return false, fmt.Errorf("imgstore: corrupt delta blob %s: truncated header", id)
		}
		copy(baseID[:], blob[1:])
		if !s.Has(baseID) {
			return false, fmt.Errorf("%w: %s needs base %s", ErrMissingDeltaBase, id, baseID)
		}
		// decodeDelta reconstructs against the base and rejects the blob
		// unless the result hashes to id.
		img, err := s.decodeDelta(id, blob, nil, 0)
		if err != nil {
			return false, err
		}
		rawSize = int64(serializedSize(img))
		isDelta = true
	default:
		return false, fmt.Errorf("imgstore: unknown blob tag %d for %s", blob[0], id)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.blobs[id]; dup {
		s.stats.dedups.Add(1)
		return false, nil
	}
	s.blobs[id] = append([]byte(nil), blob...)
	if isDelta {
		s.stats.deltaPuts.Add(1)
	}
	s.stats.rawBytes.Add(rawSize)
	s.stats.compressed.Add(int64(len(blob)))
	return true, nil
}

// verifyFullBlob inflates a full blob and checks that it is a valid
// serialized image hashing to id, reading it in place — no pmem.Image is
// constructed. Returns the serialized size.
func (s *Store) verifyFullBlob(id ID, blob []byte) (int64, error) {
	raw, release, err := s.inflate(blob[1:])
	if err != nil {
		return 0, err
	}
	defer release()
	got, err := pmem.SerializedHash(raw)
	if err != nil {
		return 0, fmt.Errorf("imgstore: corrupt full blob %s: %w", id, err)
	}
	if ID(got) != id {
		return 0, fmt.Errorf("imgstore: import blob content hash mismatch: want %s got %s", id, ID(got))
	}
	return int64(len(raw)), nil
}

// SetStats overwrites the statistics counters with a snapshot, restoring
// observable continuity across checkpoint/resume (the restore's own
// imports and decodes would otherwise inflate the resumed session's
// counters relative to the uninterrupted run).
func (s *Store) SetStats(st Stats) {
	s.stats.puts.Store(int64(st.Puts))
	s.stats.dedups.Store(int64(st.Dedups))
	s.stats.deltaPuts.Store(int64(st.DeltaPuts))
	s.stats.cacheHits.Store(int64(st.CacheHits))
	s.stats.cacheMisses.Store(int64(st.CacheMisses))
	s.stats.rawBytes.Store(st.RawBytes)
	s.stats.compressed.Store(st.CompressedBytes)
	s.stats.bytesComp.Store(st.BytesCompressed)
	s.stats.bytesDecomp.Store(st.BytesDecompressed)
	s.stats.classHits.Store(st.ClassHits)
	s.stats.classMisses.Store(st.ClassMisses)
}
