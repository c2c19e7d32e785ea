package imgstore

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"

	"pmfuzz/internal/pmem"
)

// fuzzBase is the one image FuzzImportBlob's store holds: two and a
// bit pages, so delta runs can cross a page boundary.
func fuzzBase() *pmem.Image {
	img := &pmem.Image{UUID: [16]byte{1}, Layout: "fuzz", Data: make([]byte, 2*pmem.PageSize+300)}
	for i := range img.Data {
		img.Data[i] = byte(i * 7)
	}
	return img
}

// fuzzStore returns a fresh store holding fuzzBase, and its ID. The
// base blob is encoded once and shared: stores never mutate a blob.
func fuzzStore(t testing.TB) (*Store, ID) {
	fuzzBaseOnce.Do(func() {
		s := New(0)
		fuzzBaseID, _, fuzzBaseErr = s.Put(fuzzBase())
		fuzzBaseBlob = s.blobs[fuzzBaseID]
	})
	if fuzzBaseErr != nil {
		t.Fatal(fuzzBaseErr)
	}
	s := New(0)
	s.blobs[fuzzBaseID] = fuzzBaseBlob
	return s, fuzzBaseID
}

var (
	fuzzBaseOnce sync.Once
	fuzzBaseID   ID
	fuzzBaseBlob []byte
	fuzzBaseErr  error
)

// overflowImage serializes an image whose layout-length field is ll,
// with a valid checksum, so a parser reaches the length check.
func overflowImage(ll uint64) []byte {
	b := append([]byte("PMFZIMG1"), make([]byte, 16)...)
	b = binary.LittleEndian.AppendUint64(b, ll)
	b = append(b, "layout, data length, data"...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// importSeed is one FuzzImportBlob input: the claimed ID and the blob.
type importSeed struct {
	name     string
	id, blob []byte
}

// importSeeds builds FuzzImportBlob's seeds against fuzzStore's base: a
// valid full blob and a valid delta blob under their IDs, then the
// three blobs whose lengths overflowed the decoders' bounds checks
// (each once panicked with "slice bounds out of range").
func importSeeds(t testing.TB) []importSeed {
	src, baseID := fuzzStore(t)
	full, _, _, _ := src.ExportBlob(baseID)
	child := fuzzBase()
	copy(child.Data[pmem.PageSize-10:], "across a page boundary")
	childID, _, err := src.PutDelta(child, baseID, fuzzBase())
	if err != nil {
		t.Fatal(err)
	}
	delta, _, _, _ := src.ExportBlob(childID)
	deflate := func(raw []byte) []byte {
		b, err := src.deflate(raw)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	header := func(layoutLen uint64, layout string) []byte {
		b := append([]byte{blobDelta}, baseID[:]...)
		b = append(b, make([]byte, 16)...)
		b = binary.AppendUvarint(b, layoutLen)
		return append(b, layout...)
	}
	// A delta whose layout length is 2⁶³.
	layoutLen := append(header(1<<63, "x"), 0)
	// A delta run at offset 2⁶⁴−1 of length 2: off+len wraps to 1.
	runWrap := binary.AppendUvarint(header(4, "fuzz"), uint64(len(fuzzBase().Data)))
	payload := binary.AppendUvarint(nil, 1)
	payload = binary.AppendUvarint(payload, 1<<64-1)
	payload = binary.AppendUvarint(payload, 2)
	runWrap = append(runWrap, deflate(append(payload, "ab"...))...)
	// A full blob whose image has layout length 2⁶³−4.
	fullLayout := append([]byte{blobFull}, deflate(overflowImage(1<<63-4))...)

	return []importSeed{
		{"full-blob", baseID[:], full},
		{"delta-blob", childID[:], delta},
		{"delta-layout-length-2p63", childID[:], layoutLen},
		{"delta-run-offset-wraps", childID[:], runWrap},
		{"full-layout-length-2p63-4", baseID[:], fullLayout},
	}
}

// TestImportBlobRejectsOverflowingLengths pins the overflow-safe bounds
// checks: each crafted blob is rejected with an error, not a panic, by
// both ImportBlob and DeltaBase.
func TestImportBlobRejectsOverflowingLengths(t *testing.T) {
	for _, sd := range importSeeds(t)[2:] {
		t.Run(sd.name, func(t *testing.T) {
			s, _ := fuzzStore(t)
			var id ID
			copy(id[:], sd.id)
			if _, _, err := DeltaBase(sd.blob); err != nil {
				t.Fatalf("DeltaBase rejected a well-formed header: %v", err)
			}
			// A fresh ID, so the duplicate fast path cannot answer.
			id[0] ^= 0xff
			if fresh, err := s.ImportBlob(id, sd.blob); err == nil || fresh {
				t.Fatalf("crafted blob admitted: fresh=%v err=%v", fresh, err)
			}
		})
	}
}

// FuzzImportBlob passes arbitrary IDs and blobs to a store holding one
// base image. The contract: ImportBlob either returns an error or
// admits a blob whose decode hashes to its ID, DeltaBase returns an
// error or a base, and neither panics.
func FuzzImportBlob(f *testing.F) {
	for _, sd := range importSeeds(f) {
		f.Add(sd.id, sd.blob)
	}
	f.Fuzz(func(t *testing.T, rawID, blob []byte) {
		DeltaBase(blob)
		s, baseID := fuzzStore(t)
		var id ID
		copy(id[:], rawID)
		fresh, err := s.ImportBlob(id, blob)
		if err != nil {
			return
		}
		if !fresh {
			if id != baseID {
				t.Fatalf("ImportBlob called %s a duplicate, but the store does not hold it", id)
			}
			return
		}
		img, err := s.NewCache(0).Get(id, nil)
		if err != nil {
			t.Fatalf("admitted blob %s does not decode: %v", id, err)
		}
		if got := ID(pmem.ContentHash(img.UUID, img.Layout, img.Data)); got != id {
			t.Fatalf("admitted blob decodes to %s, not its ID %s", got, id)
		}
	})
}
