package executor

import (
	"pmfuzz/internal/instr"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

// Arena is the per-worker execution reuse handle — the persistent-mode /
// forkserver analog. A fuzzing worker that owns an Arena and passes it in
// Options runs every execution on ONE resident device (persisted and
// volatile buffers, line-state arrays, barrier-op slice) reset in place
// per run, draws coverage tracers and trace recorders from free lists,
// and can return snapshot buffers so even output images stop allocating
// in steady state.
//
// An Arena is not safe for concurrent use: it belongs to exactly one
// worker goroutine, like an AFL++ instance owns its target process.
//
// Aliasing contract: when a run used an Arena, the Result fields that
// alias device or pooled state — Tracer, Trace, BarrierOps, CommitVars —
// are valid only until the next run on the same Arena. Callers that
// retain them across runs must copy, or recycle them only once done (as
// the fuzzing workers do for shipped coverage maps, after the
// coordinator has merged them).
type Arena struct {
	dev     *pmem.Device
	tracers []*instr.Tracer
	recs    []*trace.Recorder
	bufs    [][]byte
}

// Pool caps keep a pathological caller from growing an arena without
// bound; steady-state fuzzing needs one tracer and a couple of image
// buffers in flight.
const (
	arenaMaxTracers = 4
	arenaMaxRecs    = 4
	arenaMaxBufs    = 8
)

// NewArena returns an empty arena; the device and pools are populated
// lazily by the first execution.
func NewArena() *Arena { return &Arena{} }

// device returns the resident device reset onto img (or zeroed to size
// when img is nil), creating it on first use. Devices resize themselves
// when the workload's pool size differs from the previous run's.
func (a *Arena) device(img *pmem.Image, size int) *pmem.Device {
	switch {
	case a.dev == nil:
		if img != nil {
			a.dev = pmem.NewDeviceFromImage(img)
		} else {
			a.dev = pmem.NewDevice(size)
		}
	case img != nil:
		a.dev.Reset(img)
	default:
		a.dev.ResetEmpty(size)
	}
	a.dev.SetSnapshotAlloc(a.snapshotBuf)
	return a.dev
}

// tracer pops a reset tracer from the free list or allocates one.
func (a *Arena) tracer() *instr.Tracer {
	if n := len(a.tracers); n > 0 {
		t := a.tracers[n-1]
		a.tracers = a.tracers[:n-1]
		t.Reset()
		return t
	}
	return instr.NewTracer()
}

// recorder pops a reset trace recorder from the free list or allocates
// one.
func (a *Arena) recorder() *trace.Recorder {
	if n := len(a.recs); n > 0 {
		r := a.recs[n-1]
		a.recs = a.recs[:n-1]
		r.Reset()
		return r
	}
	return trace.NewRecorder()
}

// snapshotBuf serves pmem.Device snapshot requests from the buffer pool.
// Buffers are size-matched exactly; a miss falls through to the device's
// own make.
func (a *Arena) snapshotBuf(n int) []byte {
	for i := len(a.bufs) - 1; i >= 0; i-- {
		if len(a.bufs[i]) == n {
			b := a.bufs[i]
			a.bufs[i] = a.bufs[len(a.bufs)-1]
			a.bufs = a.bufs[:len(a.bufs)-1]
			return b
		}
	}
	return nil
}

// Recycle returns a finished Result's pooled observation state (coverage
// tracer, trace recorder) to the arena. Call it only when the tracer's
// maps are no longer referenced — a worker that shipped the maps to the
// coordinator must not recycle them before the merge. The fields are
// nilled so a stale read fails loudly instead of observing a later
// execution.
func (a *Arena) Recycle(res *Result) {
	if res == nil {
		return
	}
	if res.Tracer != nil && len(a.tracers) < arenaMaxTracers {
		a.tracers = append(a.tracers, res.Tracer)
		res.Tracer = nil
	}
	if res.Trace != nil && len(a.recs) < arenaMaxRecs {
		a.recs = append(a.recs, res.Trace)
		res.Trace = nil
	}
}

// RecycleImage donates an image's data buffer to the snapshot pool. Call
// it only for images that are fully consumed (serialized into the store,
// diffed, or discarded) and not retained anywhere: the next execution on
// this arena will overwrite the buffer. The image is emptied so a stale
// use fails loudly.
func (a *Arena) RecycleImage(img *pmem.Image) {
	if img == nil || img.Data == nil || len(a.bufs) >= arenaMaxBufs {
		return
	}
	a.bufs = append(a.bufs, img.Data)
	img.Data = nil
}
