package pmem

import (
	"bytes"
	"math/rand"
	"testing"

	"pmfuzz/internal/instr"
)

// scriptSweep journals a scripted segment on top of a scripted warm-up
// segment and returns the detached journal.
func scriptSweep(t *testing.T, size int, seed int64, steps int) *Sweep {
	t.Helper()
	d, _ := scriptDevice(size, seed, steps, nil)
	d.BeginSweep()
	rng := rand.New(rand.NewSource(seed + 100))
	for i := 0; i < steps; i++ {
		off := rng.Intn(size - 16)
		var p [8]byte
		rng.Read(p[:])
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			d.Store(off, p[:], instr.SiteID(i))
		case 4:
			d.NTStore(off, p[:], instr.SiteID(i))
		case 5, 6:
			d.Flush(off, 16, instr.SiteID(i))
		case 7, 8:
			d.Fence(instr.SiteID(i))
		default:
			d.MarkCommitVar(off, 4)
			d.Load(off, p[:], instr.SiteID(i))
		}
	}
	sw := d.EndSweep()
	if sw == nil || sw.Barriers() == 0 {
		t.Fatalf("seed %d: no journal", seed)
	}
	_ = d.Close()
	return sw
}

// TestCursorFingerprintsMatchMaterialized pins the equivalence layer's
// core claim: every fingerprint component a cursor derives in place
// equals what a materialized image would yield — the image hash matches
// Image.Hash on a second cursor's copied-out bytes, the taint signature
// matches the checkpoint's lost set, and the commit-variable
// count/signature match the normalized prefix over the materialized
// data. Checked at every pre-fence and barrier point, forward then out
// of order.
func TestCursorFingerprintsMatchMaterialized(t *testing.T) {
	const size, steps, layout = 4096, 400, "script"
	for seed := int64(1); seed <= 3; seed++ {
		sw := scriptSweep(t, size, seed, steps)
		mat := sw.Cursor()
		fpc := sw.Cursor()

		wantFP := func(data []byte, lost []Range, cvCount int) Fingerprint {
			rs := sw.CommitVarsAt(cvCount)
			return Fingerprint{
				ImageHash: (&Image{Layout: layout, Data: data}).Hash(),
				TaintSig:  TaintSignature(lost),
				CVCount:   len(rs),
				CVHash:    CommitVarSignature(rs, data),
			}
		}

		type point struct {
			b        int
			preFence bool
			want     Fingerprint
		}
		var points []point
		for b := 1; b <= sw.Barriers(); b++ {
			cp := sw.Checkpoint(b)
			if cp.PreOp >= 1 {
				fp, ok := fpc.PreFence(b, layout)
				if !ok {
					t.Fatalf("seed %d barrier %d: PreFence refused an existing point", seed, b)
				}
				want := wantFP(mat.PreFenceData(b), cp.PreLost, cp.PreCommitVarCount)
				if fp != want {
					t.Fatalf("seed %d barrier %d: pre-fence fingerprint differs:\n got %+v\nwant %+v", seed, b, fp, want)
				}
				points = append(points, point{b: b, preFence: true, want: want})
			} else if _, ok := fpc.PreFence(b, layout); ok {
				t.Fatalf("seed %d barrier %d: PreFence accepted a nonexistent point", seed, b)
			}
			fp := fpc.Barrier(b, layout)
			want := wantFP(mat.ImageData(b), cp.Lost, cp.CommitVarCount)
			if fp != want {
				t.Fatalf("seed %d barrier %d: barrier fingerprint differs:\n got %+v\nwant %+v", seed, b, fp, want)
			}
			points = append(points, point{b: b, want: want})
		}

		// Out-of-order re-fingerprinting must rebuild from the base and
		// reproduce the forward walk's values exactly.
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			p := points[rng.Intn(len(points))]
			if p.preFence {
				fp, ok := fpc.PreFence(p.b, layout)
				if !ok || fp != p.want {
					t.Fatalf("seed %d barrier %d: random-access pre-fence fingerprint diverged", seed, p.b)
				}
			} else if fp := fpc.Barrier(p.b, layout); fp != p.want {
				t.Fatalf("seed %d barrier %d: random-access barrier fingerprint diverged", seed, p.b)
			}
		}
		if fpc.AppliedLines() == 0 {
			t.Fatalf("seed %d: fingerprinting cursor applied no delta lines", seed)
		}
	}
}

// TestSweepCursorSeekOrder pins SweepCursor's random-access contract:
// whatever order points are visited in, the cursor's copied-out images
// and its fingerprints equal a forward-only walk's. That covers the
// orders the in-place pre-fence rule makes distinct: a barrier right
// after the next barrier's pre-fence point (its PreDelta must not leak
// into the earlier state), a repeated pre-fence point, and backward
// seeks mixing pre-fence and barrier points.
func TestSweepCursorSeekOrder(t *testing.T) {
	const size, steps, layout = 4096, 300, "seek"
	sw := scriptSweep(t, size, 7, steps)

	type point struct {
		b        int
		preFence bool
	}
	fwd := sw.Cursor()
	images := make(map[point][]byte)
	fps := make(map[point]Fingerprint)
	var points []point
	for b := 1; b <= sw.Barriers(); b++ {
		if sw.Checkpoint(b).PreOp >= 1 {
			p := point{b, true}
			images[p] = fwd.PreFenceData(b)
			fps[p], _ = fwd.PreFence(b, layout)
			points = append(points, p)
		}
		p := point{b, false}
		images[p] = fwd.ImageData(b)
		fps[p] = fwd.Barrier(b, layout)
		points = append(points, p)
	}

	cur := sw.Cursor()
	check := func(what string, p point) {
		t.Helper()
		var data []byte
		var fp Fingerprint
		if p.preFence {
			data = cur.PreFenceData(p.b)
			fp, _ = cur.PreFence(p.b, layout)
		} else {
			data = cur.ImageData(p.b)
			fp = cur.Barrier(p.b, layout)
		}
		if !bytes.Equal(data, images[p]) {
			t.Fatalf("%s: image of %+v diverges from the forward walk", what, p)
		}
		if fp != fps[p] {
			t.Fatalf("%s: fingerprint of %+v diverges from the forward walk", what, p)
		}
		if h, ok := cur.ImageHash(layout); !ok || h != fp.ImageHash {
			t.Fatalf("%s: tracked image hash of %+v diverges from its fingerprint", what, p)
		}
	}

	// Strictly backward, each barrier before its own pre-fence point.
	for i := len(points) - 1; i >= 0; i-- {
		check("backward", points[i])
	}
	// A pre-fence point, then the barrier before it; a pre-fence point
	// twice; a pre-fence point, then its own barrier.
	for b := 2; b <= sw.Barriers(); b++ {
		if _, ok := images[point{b, true}]; !ok {
			continue
		}
		check("pre-fence then earlier barrier", point{b, true})
		check("pre-fence then earlier barrier", point{b - 1, false})
		check("repeated pre-fence", point{b, true})
		check("repeated pre-fence", point{b, true})
		check("pre-fence then own barrier", point{b, false})
	}
	// Random access over both kinds.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 64; i++ {
		check("random", points[rng.Intn(len(points))])
	}
}

// TestCommitVarsAtBoundaries pins CommitVarsAt at the journal's edge
// barriers (b=1 and b=Barriers()) and degenerate counts: n=0 is empty,
// n past the registration log clamps, and every returned slice is a
// fresh normalized copy the caller may mutate.
func TestCommitVarsAtBoundaries(t *testing.T) {
	const size, steps = 4096, 300
	sw := scriptSweep(t, size, 11, steps)

	if got := sw.CommitVarsAt(0); len(got) != 0 {
		t.Fatalf("CommitVarsAt(0) = %v, want empty", got)
	}
	first := sw.Checkpoint(1)
	last := sw.Checkpoint(sw.Barriers())
	for _, n := range []int{first.CommitVarCount, last.CommitVarCount, 1 << 20} {
		got := sw.CommitVarsAt(n)
		if !rangesEq(got, NormalizeRanges(got)) {
			t.Fatalf("CommitVarsAt(%d) not normalized: %v", n, got)
		}
		// The slice must be caller-owned: mutating it cannot perturb a
		// subsequent call.
		if len(got) > 0 {
			got[0].Off ^= 1
			again := sw.CommitVarsAt(n)
			if len(again) > 0 && again[0].Off == got[0].Off {
				t.Fatalf("CommitVarsAt(%d) returned a shared slice", n)
			}
		}
	}
	// Counts are monotone along the journal: the last barrier sees at
	// least as many registrations as the first.
	if last.CommitVarCount < first.CommitVarCount {
		t.Fatalf("commit-var counts not monotone: first=%d last=%d", first.CommitVarCount, last.CommitVarCount)
	}
}
