package imgstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
)

// refHash writes the image content hash out from its definition:
// SHA-256(uuid ‖ le64(len(layout)) ‖ layout ‖ le64(len(data)) ‖
// SHA-256(page 0) ‖ … ‖ SHA-256(page n−1)) over 4 KiB pages.
func refHash(uuid [16]byte, layout string, data []byte) [32]byte {
	h := sha256.New()
	h.Write(uuid[:])
	binary.Write(h, binary.LittleEndian, uint64(len(layout)))
	h.Write([]byte(layout))
	binary.Write(h, binary.LittleEndian, uint64(len(data)))
	for off := 0; off < len(data); off += 4096 {
		page := sha256.Sum256(data[off:min(off+4096, len(data))])
		h.Write(page[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// fullHash is a from-scratch Image.Hash of the given contents.
func fullHash(uuid [16]byte, layout string, data []byte) [32]byte {
	return (&pmem.Image{UUID: uuid, Layout: layout, Data: data}).Hash()
}

// requireStamped checks that img carries a stamped hash equal to a
// from-scratch hash of its contents. It then flips a byte of the
// image's data: Hash must keep answering the stamp, which shows the
// stamp, not a recomputation, was checked. img must be discardable.
func requireStamped(t *testing.T, what string, img *pmem.Image) {
	t.Helper()
	want := fullHash(img.UUID, img.Layout, img.Data)
	img.Data[len(img.Data)/2] ^= 0xff
	if got := img.Hash(); got != want {
		t.Fatalf("%s: stamped hash %x, from-scratch hash %x", what, got[:6], want[:6])
	}
}

// randomEditSweep journals random page edits on a device whose size
// ends in a partial page: every page starts with random contents, then
// 8-byte stores land at random offsets (a quarter straddle a page
// boundary) and random flushes and fences persist them.
func randomEditSweep(t *testing.T, seed int64) *pmem.Sweep {
	t.Helper()
	const size = 6*pmem.PageSize + 200
	rng := rand.New(rand.NewSource(seed))
	d := pmem.NewDevice(size)
	init := make([]byte, size)
	rng.Read(init)
	d.Store(0, init, instr.SiteID(1))
	d.Flush(0, size, instr.SiteID(2))
	d.Fence(instr.SiteID(3))
	d.BeginSweep()
	for i := 0; i < 400; i++ {
		off := rng.Intn(size - 8)
		if rng.Intn(4) == 0 {
			off = min(size-8, max(0, (1+rng.Intn(size/pmem.PageSize))*pmem.PageSize-4))
		}
		var p [8]byte
		rng.Read(p[:])
		switch rng.Intn(8) {
		case 0, 1, 2:
			d.Store(off, p[:], instr.SiteID(i))
		case 3:
			d.NTStore(off, p[:], instr.SiteID(i))
		case 4, 5:
			d.Flush(off, 8, instr.SiteID(i))
		default:
			d.Fence(instr.SiteID(i))
		}
	}
	sw := d.EndSweep()
	if sw == nil || sw.Barriers() < 10 {
		t.Fatalf("seed %d: journal too short", seed)
	}
	return sw
}

// randomInput is a random command stream for a workload.
func randomInput(rng *rand.Rand, workload string) []byte {
	var b bytes.Buffer
	for i := 0; i < 4+rng.Intn(6); i++ {
		k, v := rng.Intn(40), rng.Intn(1000)
		switch {
		case workload == "redis" && rng.Intn(4) == 0:
			fmt.Fprintf(&b, "DEL %d\n", k)
		case workload == "redis":
			fmt.Fprintf(&b, "SET %d %d\n", k, v)
		case rng.Intn(4) == 0:
			fmt.Fprintf(&b, "r %d\n", k)
		default:
			fmt.Fprintf(&b, "i %d %d\n", k, v)
		}
	}
	return b.Bytes()
}

// TestPagedHashMatchesFullHash is the property behind every incremental
// image hash: after random page edits, each sweep point (pre-fence and
// barrier), each harvested crash image and each delta-decoded store
// image carries a hash equal to a from-scratch Image.Hash, whatever
// order the points are visited in.
func TestPagedHashMatchesFullHash(t *testing.T) {
	t.Run("definition", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, n := range []int{0, 1, 4095, 4096, 4097, 3*4096 + 5, 1 << 20} {
			for _, layout := range []string{"", "btree", "a layout name longer than the header room"} {
				data := make([]byte, n)
				rng.Read(data)
				uuid := [16]byte{byte(n), 1}
				if fullHash(uuid, layout, data) != refHash(uuid, layout, data) {
					t.Fatalf("Image.Hash departs from the definition: %d bytes, layout %q", n, layout)
				}
			}
		}
	})

	t.Run("sweep-points", func(t *testing.T) {
		const layout = "paged"
		for seed := int64(1); seed <= 4; seed++ {
			sw := randomEditSweep(t, seed)
			rng := rand.New(rand.NewSource(seed))
			order := rng.Perm(sw.Barriers())
			for pass, visit := range [][]int{nil, order} {
				fpc := sw.Cursor()
				mat := sw.Cursor()
				for i := 0; i < sw.Barriers(); i++ {
					b := i + 1
					if visit != nil {
						b = visit[i] + 1
					}
					if fp, ok := fpc.PreFence(b, layout); ok {
						if want := fullHash([16]byte{}, layout, mat.PreFenceData(b)); fp.ImageHash != want {
							t.Fatalf("seed %d pass %d: pre-fence point %d hash differs", seed, pass, b)
						}
					}
					if want := fullHash([16]byte{}, layout, mat.ImageData(b)); fpc.Barrier(b, layout).ImageHash != want {
						t.Fatalf("seed %d pass %d: barrier point %d hash differs", seed, pass, b)
					}
				}
			}
			// The cursor that stamps harvested images: ascending, repeated,
			// then backward seeks.
			cur := sw.Cursor()
			cur.TrackHash()
			visit := []int{1, 2, 2, 5, sw.Barriers(), 3, 1}
			for _, i := range order {
				visit = append(visit, i+1)
			}
			for _, b := range visit {
				data := cur.ImageData(b)
				if got, ok := cur.ImageHash(layout); !ok || got != fullHash([16]byte{}, layout, data) {
					t.Fatalf("seed %d: tracked cursor at barrier %d hash differs", seed, b)
				}
			}
		}
	})

	t.Run("harvest", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, wl := range []string{"btree", "redis"} {
			for k := 0; k < 2; k++ {
				tc := executor.TestCase{Workload: wl, Input: randomInput(rng, wl), Seed: int64(k)}
				sw := executor.SweepRun(tc, executor.Options{})
				if sw.Barriers() == 0 {
					t.Fatalf("%s case %d: no barriers", wl, k)
				}
				for _, fp := range sw.Fingerprints(0, true) {
					var res *executor.Result
					if fp.PreFence {
						res = sw.PreFenceCrash(fp.Barrier)
					} else {
						res = sw.Crash(fp.Barrier)
					}
					if want := fullHash(res.Image.UUID, res.Image.Layout, res.Image.Data); fp.FP.ImageHash != want {
						t.Fatalf("%s case %d: point b=%d pre=%v hash differs", wl, k, fp.Barrier, fp.PreFence)
					}
				}
				sw.EnableIncrementalHash()
				visit := []int{1, 2, 2, sw.Barriers()}
				for _, i := range rng.Perm(sw.Barriers())[:min(5, sw.Barriers())] {
					visit = append(visit, i+1)
				}
				for _, b := range visit {
					if b <= sw.Barriers() {
						requireStamped(t, fmt.Sprintf("%s case %d harvested barrier %d", wl, k, b), sw.Crash(b).Image)
					}
				}
			}
		}
	})

	t.Run("store-decodes", func(t *testing.T) {
		const size = 9*pmem.PageSize + 77
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := imgstore.New(0)
			prev := &pmem.Image{Layout: "paged", Data: make([]byte, size)}
			rng.Read(prev.Data)
			rng.Read(prev.UUID[:])
			prevID, _, err := s.Put(prev)
			if err != nil {
				t.Fatal(err)
			}
			want := map[imgstore.ID][]byte{prevID: prev.Data}
			ids := []imgstore.ID{prevID}
			// A chain of deltas, each on the previous image, so decoding
			// link k decodes links 1..k-1 first. One link changes the
			// layout to one longer than the hasher's header room.
			for link := 0; link < 5; link++ {
				next := &pmem.Image{UUID: prev.UUID, Layout: prev.Layout, Data: append([]byte(nil), prev.Data...)}
				if link == 2 {
					next.Layout = "a layout name longer than the header room"
				}
				for e := 0; e < 1+rng.Intn(6); e++ {
					off := rng.Intn(size)
					if rng.Intn(3) == 0 {
						off = max(0, (1+rng.Intn(size/pmem.PageSize))*pmem.PageSize-rng.Intn(64))
					}
					rng.Read(next.Data[off:min(size, off+1+rng.Intn(300))])
				}
				id, fresh, err := s.PutDelta(next, prevID, prev)
				if err != nil || !fresh {
					t.Fatalf("seed %d link %d: PutDelta fresh=%v err=%v", seed, link, fresh, err)
				}
				want[id] = next.Data
				ids = append(ids, id)
				prev, prevID = next, id
			}
			if st := s.Stats(); st.DeltaPuts != 5 {
				t.Fatalf("seed %d: %d delta puts, want 5", seed, st.DeltaPuts)
			}
			// The decode path of Get, and of ImportBlob into a second store
			// in chain order.
			peer := imgstore.New(0)
			for i, id := range ids {
				blob, _, _, _ := s.ExportBlob(id)
				if _, err := peer.ImportBlob(id, blob); err != nil {
					t.Fatalf("seed %d link %d: import: %v", seed, i, err)
				}
			}
			for _, st := range []*imgstore.Store{s, peer} {
				for i, id := range ids[1:] {
					img, err := st.NewCache(0).Get(id, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(img.Data, want[id]) {
						t.Fatalf("seed %d link %d: decoded data differs", seed, i+1)
					}
					requireStamped(t, fmt.Sprintf("seed %d link %d decode", seed, i+1), img)
				}
			}
		}
	})
}
