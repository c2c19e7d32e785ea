package core

// The fuzzing engine's worker side. Each worker goroutine is the
// in-process analog of one AFL instance in the paper's §5.1 fleet: it
// owns a private virgin pair, mutator, decompressed-image cache, and
// simulated clock shard, executes batch leases handed out by
// the coordinator, and ships per-execution outcomes back for the
// authoritative merge. Workers pre-filter with their private virgins —
// full coverage maps are only shipped for executions that look new to
// this worker — which is lossless: anything new to the fleet is by
// definition new to the worker that first executes it.

import (
	"fmt"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/instr"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads/bugs"
)

// energyBase is the child count for an unfavored entry; Favored levels
// shift it to 4 / 8 / 16.
const energyBase = 4

// workerSeedPrime spaces the per-worker mutator and crash-placement
// seeds so workers explore decorrelated streams while staying a pure
// function of (Config.Seed, workerID).
const workerSeedPrime = 100003

// workItem is one lease as dispatched to a worker: either a warm-up run
// of a seed entry as-is, or a fuzz.Lease batch of mutated children.
type workItem struct {
	lease *fuzz.Lease
	// seedRun executes the parent input unmutated (Figure 11 step ①).
	seedRun bool
	// execs is the session's execution count when the lease was issued.
	execs int
}

// execOutcome is everything the coordinator needs from one worker
// execution (plus its attached crash-image sweep, when one ran).
type execOutcome struct {
	input []byte
	// tracer carries the execution's coverage maps, shipped only when the
	// worker's private virgins saw something new (nil otherwise).
	tracer *instr.Tracer
	// pmSig is the PM-path signature (valid when hasPMSig).
	pmSig    uint64
	hasPMSig bool
	// inImage is the image the execution started from (the parent image
	// an admitted child keeps fuzzing on); outImage is the durable
	// output image, set only when the worker saw a new PM path and
	// image generation is enabled.
	inImage  *pmem.Image
	outImage *pmem.Image
	// crashImages are the failure-injection sweep results for outImage;
	// crashClassKeys carries each image's behavioral equivalence-class
	// key (executor.CrashClassKey), index-parallel, computed at harvest
	// time while the full crash Result is in hand.
	crashImages    []*pmem.Image
	crashClassKeys []uint64
	// setupPM is the recovery-phase PM map copy recorded when the
	// execution opened a crash image under recovery tracking (nil
	// otherwise); the coordinator merges it into the session's recovery
	// virgin.
	setupPM *instr.Map
	// faulted/faultMsg capture program faults (the crash bucket).
	faulted  bool
	faultMsg string
	// execs counts raw executions consumed (1 + crash-sweep runs).
	execs int
	// simNS is the worker's clock after the execution.
	simNS int64
}

// workerBatch is the result of one lease.
type workerBatch struct {
	parent   *fuzz.Entry
	outcomes []*execOutcome
	// clockNS is the worker's clock shard after the batch; the
	// coordinator's merged time axis is the max over these.
	clockNS int64
	// done reports that the worker's simulated budget is exhausted.
	done bool
}

// worker is one parallel fuzzing instance.
type worker struct {
	id   int
	cfg  Config
	bugs *bugs.Set

	mut   *fuzz.Mutator
	clock *pmem.Clock
	cache *imgstore.Cache
	store *imgstore.Store

	branchVirgin *instr.Virgin
	pmVirgin     *instr.Virgin

	// trackRecovery mirrors the session's recovery accounting: crash-image
	// executions record their setup-phase PM map for the coordinator.
	trackRecovery bool

	seedInput []byte

	// execs is the session's execution count when the current lease was
	// issued plus the executions run so far in the lease. It seeds
	// probabilistic crash placements, so they differ across outcomes.
	execs int

	// arena is this worker's private execution reuse handle (the
	// persistent-mode analog): one resident device, pooled tracers and
	// snapshot buffers. Outcomes shipped to the coordinator (coverage
	// maps, output and crash images) are never recycled — the arena only
	// reclaims state that dies inside the worker.
	arena *executor.Arena

	// shard is this worker's private telemetry shard (nil when telemetry
	// is off). The coordinator folds it into the shared registry while
	// the worker is parked between batches — the same exclusive-access
	// window the virgin refresh uses — so the hot path never touches a
	// shared cache line.
	shard *obs.Shard

	leases  chan workItem
	results chan *workerBatch
}

// newWorkerState builds the part of worker id that a checkpoint
// carries: its mutator and its image cache.
func newWorkerState(f *Fuzzer, id int) *worker {
	cacheCap := 0
	if f.cfg.Features.SysOpt {
		cacheCap = imageCacheCap
	}
	return &worker{
		mut:   fuzz.NewMutator(f.cfg.Seed+2+int64(id)*workerSeedPrime, f.seedDict),
		cache: f.store.NewCache(cacheCap),
	}
}

func newWorker(f *Fuzzer, id int) *worker {
	var shard *obs.Shard
	if f.tele != nil {
		shard = &obs.Shard{}
	}
	st := newWorkerState(f, id)
	w := &worker{
		id:            id,
		cfg:           f.cfg,
		bugs:          f.bugs,
		mut:           st.mut,
		clock:         pmem.NewClock(),
		cache:         st.cache,
		store:         f.store,
		branchVirgin:  instr.NewVirgin(),
		pmVirgin:      instr.NewVirgin(),
		trackRecovery: f.recVirgin != nil,
		seedInput:     f.seedInput,
		arena:         executor.NewArena(),
		shard:         shard,
		leases:        make(chan workItem, 1),
		results:       make(chan *workerBatch, 1),
	}
	// Clock shards start on the merged time axis, which is past zero in
	// a stage-2 campaign or a resumed session.
	w.clock.Charge(f.clock.Now())
	w.cache.SetShard(shard)
	return w
}

// run is the worker goroutine: execute each lease, ship the batch.
// Between shipping a batch and receiving the next lease the worker
// never writes its shard (idle timing starts on lease receipt), which
// is what lets the coordinator merge the shard in that window.
func (w *worker) run() {
	idle0 := w.shard.Begin()
	for item := range w.leases {
		w.shard.EndIdle(idle0)
		t0 := w.shard.Begin()
		w.execs = item.execs
		b := &workerBatch{parent: item.lease.Parent}
		if item.seedRun {
			if w.clock.Now() < w.cfg.BudgetNS {
				e := item.lease.Parent
				b.outcomes = append(b.outcomes, w.execCase(e, e.Input, w.resolveImage(e)))
			}
		} else {
			for i := 0; i < item.lease.Energy && w.clock.Now() < w.cfg.BudgetNS; i++ {
				input, img := w.deriveChild(item.lease, i)
				b.outcomes = append(b.outcomes, w.execCase(item.lease.Parent, input, img))
			}
		}
		b.clockNS = w.clock.Now()
		b.done = b.clockNS >= w.cfg.BudgetNS
		w.shard.EndLease(t0)
		w.results <- b
		idle0 = w.shard.Begin()
	}
}

// deriveChild produces child i of a lease as an (input, image) pair.
// The splice-or-havoc decision comes pre-drawn in the lease (queue
// access stays with the coordinator). The image part is either
// inherited (indirect mutation happens through execution) or
// byte-mutated (the ImgFuzzDirect comparison point).
func (w *worker) deriveChild(l *fuzz.Lease, i int) ([]byte, *imageRef) {
	e := l.Parent
	input := e.Input
	if w.cfg.Features.InputFuzz {
		t0 := w.shard.Begin()
		if sp := l.Splices[i]; sp != nil {
			input = w.mut.Splice(e.Input, sp)
		} else {
			input = w.mut.Havoc(e.Input)
		}
		w.shard.End(obs.StageMutate, t0)
	}
	img := w.resolveImage(e)
	if !w.cfg.Features.ImgFuzzDirect {
		return input, img
	}
	// Direct image mutation: corrupt the image payload, keep the fixed
	// seed input. An entry without an image mutates the output of one
	// clean seed run, which runs on the arena and is recycled once cloned.
	var base *pmem.Image
	if img != nil {
		base = img.img
	}
	var seedRes *executor.Result
	if base == nil {
		seedRes = executor.Run(executor.TestCase{
			Workload: w.cfg.Workload, Input: w.seedInput, Bugs: w.bugs, Seed: w.cfg.Seed,
		}, executor.Options{Clock: w.clock, Arena: w.arena, Shard: w.shard})
		if seedRes.Image == nil {
			w.arena.Recycle(seedRes)
			return w.seedInput, nil
		}
		base = seedRes.Image
	}
	t0 := w.shard.Begin()
	mutated := base.Clone()
	mutated.Data = w.mut.MutateImage(mutated.Data)
	w.shard.End(obs.StageMutate, t0)
	if seedRes != nil {
		w.arena.Recycle(seedRes)
		w.arena.RecycleImage(seedRes.Image)
	}
	return w.seedInput, &imageRef{img: mutated}
}

// imageRef is a resolved queue-entry image plus whether it was resident
// in the worker's cache (which decides the simulated open cost).
type imageRef struct {
	img    *pmem.Image
	cached bool
}

// resolveImage loads an entry's image through the worker's private
// cache, charging decompression to the worker's clock shard.
func (w *worker) resolveImage(e *fuzz.Entry) *imageRef {
	if !e.HasImage {
		return nil
	}
	cached := w.cache.Cached(e.ImageID)
	img, err := w.cache.Get(e.ImageID, w.clock)
	if err != nil {
		return nil
	}
	return &imageRef{img: img, cached: cached && w.cfg.Features.SysOpt}
}

// execCase executes one candidate, applies the worker-local coverage
// pre-filter, and (on a locally new PM path) runs the crash-image sweep
// so that a lease is one self-contained unit of fleet work.
func (w *worker) execCase(parent *fuzz.Entry, input []byte, img *imageRef) *execOutcome {
	tc := executor.TestCase{
		Workload: w.cfg.Workload,
		Input:    input,
		Bugs:     w.bugs,
		Seed:     w.cfg.Seed,
	}
	var cached bool
	if img != nil && img.img != nil {
		tc.Image = img.img
		cached = img.cached
	}
	res := executor.Run(tc, executor.Options{
		Clock:         w.clock,
		ImageCached:   cached || (tc.Image == nil && w.cfg.Features.SysOpt),
		MaxCommands:   maxCommands,
		Arena:         w.arena,
		Shard:         w.shard,
		RecordSetupPM: w.trackRecovery && parent != nil && parent.IsCrashImage && tc.Image != nil,
	})
	w.execs++
	o := &execOutcome{input: input, inImage: tc.Image, execs: 1, setupPM: res.SetupPM}
	newBSlot, newBBucket := w.branchVirgin.Merge(res.Tracer.BranchMap())
	newPSlot, newPBucket := w.pmVirgin.Merge(res.Tracer.PMMap())
	if res.Tracer.PMOps() > 0 {
		o.pmSig = instr.Signature(res.Tracer.PMMap())
		o.hasPMSig = true
	}
	if newBSlot || newBBucket || newPSlot || newPBucket {
		// Locally new: ship the maps for the authoritative merge without
		// copying. The tracer comes back through reclaim once the batch
		// is merged.
		o.tracer = res.Tracer
	} else {
		w.arena.Recycle(res)
	}
	if res.Faulted() {
		o.faulted = true
		if res.Panicked {
			o.faultMsg = fmt.Sprintf("panic: %v", res.PanicVal)
		} else if res.Err != nil {
			o.faultMsg = res.Err.Error()
		}
		o.simNS = w.clock.Now()
		w.arena.RecycleImage(res.Image)
		return o
	}
	if w.cfg.Features.ImgFuzzIndirect && res.Image != nil && (newPSlot || newPBucket) {
		o.outImage = res.Image
		w.harvestCrashImages(tc, res, o)
	} else {
		// The output image is not shipped; reclaim its buffer.
		w.arena.RecycleImage(res.Image)
	}
	o.simNS = w.clock.Now()
	return o
}

// reclaim returns a merged batch's shipped tracers and images to the
// worker's arena: the merge folded the maps into the authoritative
// virgins and serialized the images into the store, so nothing holds
// them any more. The coordinator calls it while the worker is parked
// between its result hand-off and its next lease, the same
// exclusive-access window as the virgin refresh. The image an outcome
// started from belongs to the cache and is never reclaimed.
func (w *worker) reclaim(b *workerBatch) {
	for _, o := range b.outcomes {
		w.arena.Recycle(&executor.Result{Tracer: o.tracer})
		w.arena.RecycleImage(o.outImage)
		for _, img := range o.crashImages {
			w.arena.RecycleImage(img)
		}
	}
}

// harvestCrashImages is the worker-side failure-injection sweep
// (Figure 11 steps ③–④), charging the worker's clock. The decision to
// sweep is worker-local — like a real fleet, an instance harvests for
// anything new to *it*; the coordinator discards harvests whose PM path
// the fleet had already seen.
//
// The barrier leg is single-pass: one journaled re-execution
// materializes every sampled ordering point from its delta journal. The
// incremental hasher stamps each image's content hash, so the
// coordinator's dedup Put does not re-hash shipped images. Probabilistic
// placements land between ordering points, so they are genuinely
// re-executed, each seeded from the worker's running execution count.
func (w *worker) harvestCrashImages(tc executor.TestCase, res *executor.Result, o *execOutcome) {
	if w.cfg.MaxBarrierImages <= 0 {
		return
	}
	if w.clock.Now() < w.cfg.BudgetNS {
		sw := executor.SweepRun(tc, executor.Options{Clock: w.clock, MaxCommands: maxCommands, Arena: w.arena, Shard: w.shard})
		o.execs++
		w.execs++
		sw.EnableIncrementalHash()
		n := w.cfg.MaxBarrierImages
		if n > sw.Barriers() {
			n = sw.Barriers()
		}
		for i := 1; i <= n && w.clock.Now() < w.cfg.BudgetNS; i++ {
			b := i * sw.Barriers() / n
			if b < 1 {
				b = 1
			}
			if crash := sw.Crash(b); crash != nil && crash.Image != nil {
				o.crashImages = append(o.crashImages, crash.Image)
				o.crashClassKeys = append(o.crashClassKeys, executor.CrashClassKey(crash))
			}
		}
		// The journaled run's own result stays worker-local (the sweep
		// ships only materialized crash images), so it can be reclaimed.
		w.arena.Recycle(sw.Clean)
		w.arena.RecycleImage(sw.Clean.Image)
	}
	for s := 0; s < w.cfg.ProbFailSeeds && w.cfg.ProbFailRate > 0 && w.clock.Now() < w.cfg.BudgetNS; s++ {
		tcp := tc
		tcp.Injector = pmem.NewProbabilisticFailure(w.cfg.Seed+int64(w.id)*workerSeedPrime+int64(w.execs)*131, w.cfg.ProbFailRate)
		crash := executor.Run(tcp, executor.Options{Clock: w.clock, MaxCommands: maxCommands, Arena: w.arena, Shard: w.shard})
		o.execs++
		w.execs++
		if crash.Crashed && crash.Image != nil {
			o.crashImages = append(o.crashImages, crash.Image)
			o.crashClassKeys = append(o.crashClassKeys, executor.CrashClassKey(crash))
		} else {
			w.arena.RecycleImage(crash.Image)
		}
		w.arena.Recycle(crash)
	}
}
