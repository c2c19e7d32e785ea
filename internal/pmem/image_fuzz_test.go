package pmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"
)

// overflowImage serializes an image whose layout-length field is ll,
// with a valid checksum, so the parser reaches the length check.
func overflowImage(ll uint64) []byte {
	b := append([]byte(imageMagic), make([]byte, 16)...)
	b = binary.LittleEndian.AppendUint64(b, ll)
	b = append(b, "layout, data length, data"...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// TestUnmarshalImageRejectsOverflowingLengths pins the overflow-safe
// length checks: layout lengths near 2⁶³ once wrapped the bounds check
// and panicked with "slice bounds out of range".
func TestUnmarshalImageRejectsOverflowingLengths(t *testing.T) {
	for _, ll := range []uint64{1<<63 - 8, 1<<63 - 4, 1 << 63, 1<<64 - 1} {
		if _, err := UnmarshalImage(overflowImage(ll)); !errors.Is(err, ErrBadImage) {
			t.Errorf("layout length %#x: UnmarshalImage err = %v, want ErrBadImage", ll, err)
		}
		if _, err := SerializedHash(overflowImage(ll)); !errors.Is(err, ErrBadImage) {
			t.Errorf("layout length %#x: SerializedHash err = %v, want ErrBadImage", ll, err)
		}
	}
}

// FuzzImageUnmarshal asserts UnmarshalImage never panics on arbitrary
// bytes and that every image it accepts roundtrips byte-exactly through
// Marshal.
func FuzzImageUnmarshal(f *testing.F) {
	valid := &Image{Layout: "btree", Data: []byte("pool contents")}
	copy(valid.UUID[:], "0123456789abcdef")
	f.Add(valid.Marshal())
	empty := &Image{}
	f.Add(empty.Marshal())
	f.Add([]byte("PMFZIMG1"))
	f.Add([]byte("not an image"))
	f.Add(overflowImage(1<<63 - 8))
	f.Add(overflowImage(1<<63 - 4))
	f.Fuzz(func(t *testing.T, raw []byte) {
		img, err := UnmarshalImage(raw)
		if sum, herr := SerializedHash(raw); (herr == nil) != (err == nil) || (err == nil && sum != img.Hash()) {
			t.Fatalf("SerializedHash disagrees with UnmarshalImage: %v vs %v", herr, err)
		}
		if err != nil {
			return
		}
		again, err := UnmarshalImage(img.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of accepted image failed: %v", err)
		}
		if again.UUID != img.UUID || again.Layout != img.Layout || !bytes.Equal(again.Data, img.Data) {
			t.Fatalf("roundtrip drifted: %+v vs %+v", img, again)
		}
		// A parsed image must also re-serialize to the exact input: the
		// format has no slack bytes, and the checksum pins the rest.
		if !bytes.Equal(img.Marshal(), raw) {
			t.Fatalf("accepted image does not re-marshal to its input (%d vs %d bytes)",
				len(img.Marshal()), len(raw))
		}
	})
}
