package pmem

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Image is a serialized PM pool file — the unit PMFuzz generates, mutates
// (indirectly), deduplicates, and hands to the testing tools as part of a
// test case.
type Image struct {
	// UUID identifies the pool. Under derandomization (§4.4(1)) pool
	// creation writes a constant UUID so identical inputs yield
	// byte-identical images.
	UUID [16]byte
	// Layout names the pool layout (e.g. "btree"), mirroring
	// pmemobj_create's layout string.
	Layout string
	// Data is the raw pool contents.
	Data []byte

	// hash memoizes the content hash when it was derived incrementally or
	// verified during decode. It is only ever set through
	// SetPrecomputedHash, on images whose contents will not change.
	hash    [32]byte
	hashSet bool
}

const imageMagic = "PMFZIMG1"

// ErrBadImage reports a malformed or corrupted serialized image.
var ErrBadImage = errors.New("pmem: bad image")

// Hash returns the image's content hash (ContentHash over UUID, layout
// and data). PMFuzz's image-reduction step (§4.5 step ④) deduplicates on
// this value.
func (img *Image) Hash() [32]byte {
	if img.hashSet {
		return img.hash
	}
	return ContentHash(img.UUID, img.Layout, img.Data)
}

// SetPrecomputedHash memoizes the image's content hash. The caller owns
// the invariant that h equals Hash() of the current contents and that the
// image is no longer mutated; the sweep's incremental hasher and the
// store's verified decode path use it to skip redundant full SHA passes.
func (img *Image) SetPrecomputedHash(h [32]byte) {
	img.hash = h
	img.hashSet = true
}

// Clone returns a deep copy of the image. The hash memo is deliberately
// dropped: clones exist to be mutated.
func (img *Image) Clone() *Image {
	data := make([]byte, len(img.Data))
	copy(data, img.Data)
	out := &Image{Layout: img.Layout, Data: data}
	out.UUID = img.UUID
	return out
}

// marshalSize returns the exact serialized size of the image.
func (img *Image) marshalSize() int {
	return len(imageMagic) + 16 + 8 + len(img.Layout) + 8 + len(img.Data) + sha256.Size
}

// Marshal serializes the image with a checksummed header:
// magic | uuid | layout len | layout | data len | data | sha256.
// One buffer of exact size is allocated and the checksum is computed over
// it in place — no bytes.Buffer growth and no second copy of the pool.
func (img *Image) Marshal() []byte {
	out := make([]byte, img.marshalSize())
	p := copy(out, imageMagic)
	p += copy(out[p:], img.UUID[:])
	binary.LittleEndian.PutUint64(out[p:], uint64(len(img.Layout)))
	p += 8
	p += copy(out[p:], img.Layout)
	binary.LittleEndian.PutUint64(out[p:], uint64(len(img.Data)))
	p += 8
	p += copy(out[p:], img.Data)
	sum := sha256.Sum256(out[:p])
	copy(out[p:], sum[:])
	return out
}

// UnmarshalImage parses a serialized image, verifying magic and checksum.
func UnmarshalImage(b []byte) (*Image, error) {
	uuid, layout, data, err := parseImage(b)
	if err != nil {
		return nil, err
	}
	img := &Image{UUID: uuid, Layout: string(layout), Data: make([]byte, len(data))}
	copy(img.Data, data)
	return img, nil
}

// SerializedHash verifies a serialized image like UnmarshalImage and
// returns its content hash, reading the fields in place instead of
// building an Image.
func SerializedHash(b []byte) ([32]byte, error) {
	uuid, layout, data, err := parseImage(b)
	if err != nil {
		return [32]byte{}, err
	}
	return ContentHash(uuid, string(layout), data), nil
}

// parseImage checks a serialized image's magic, checksum and lengths and
// returns views of its fields. Every length is compared against the
// bytes left, so no crafted length can overflow a check.
func parseImage(b []byte) (uuid [16]byte, layout, data []byte, err error) {
	if len(b) < len(imageMagic)+16+8 {
		return uuid, nil, nil, fmt.Errorf("%w: truncated header", ErrBadImage)
	}
	if string(b[:len(imageMagic)]) != imageMagic {
		return uuid, nil, nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	if len(b) < len(imageMagic)+16+8+sha256.Size {
		return uuid, nil, nil, fmt.Errorf("%w: truncated checksum", ErrBadImage)
	}
	body, sum := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(want[:], sum) {
		return uuid, nil, nil, fmt.Errorf("%w: checksum mismatch", ErrBadImage)
	}
	p := len(imageMagic)
	p += copy(uuid[:], body[p:])
	ll := binary.LittleEndian.Uint64(body[p:])
	p += 8
	if ll > uint64(len(body)-p) {
		return uuid, nil, nil, fmt.Errorf("%w: bad layout length %d", ErrBadImage, ll)
	}
	layout = body[p : p+int(ll)]
	p += int(ll)
	if len(body)-p < 8 {
		return uuid, nil, nil, fmt.Errorf("%w: truncated data length", ErrBadImage)
	}
	dl := binary.LittleEndian.Uint64(body[p:])
	p += 8
	if dl != uint64(len(body)-p) {
		return uuid, nil, nil, fmt.Errorf("%w: bad data length %d", ErrBadImage, dl)
	}
	return uuid, layout, body[p:], nil
}
