package core

// The fuzzing engine's coordinator side: the single goroutine that owns
// the queue, the image store's growth, the authoritative virgin pair,
// the PM-path signature set, and the fault buckets. Execution fans out
// to workers in rounds — every active worker gets one batch lease, the
// coordinator collects and merges all batches in worker-ID order — so a
// session is a pure function of (Config.Seed, Config.Workers): the
// schedule, every mutation, and every merge decision replay identically
// no matter how the goroutines interleave in real time.
//
// Time follows the paper's fleet semantics (§5.1): each worker charges
// its own simulated clock shard exactly like a single-instance session,
// and the merged time axis is the maximum over shards — N instances
// fuzzing for T seconds of wall clock.

import (
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/obs"
)

// runFleet executes the fuzzing session as a coordinator plus n worker
// goroutines. Each round leases every active worker one batch — a seed
// warm-up run while warm-up seeds remain, then a scheduled parent's
// children — and merges all batches in worker-ID order. A worker leaves
// the fleet when its clock shard exhausts the budget.
func (f *Fuzzer) runFleet(n int) *Result {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = newWorker(f, i)
	}
	if f.lead != nil {
		// A resumed session's worker 0 continues the checkpointed mutator
		// stream and image cache.
		ws[0].mut, ws[0].cache = f.lead.mut, f.lead.cache
		ws[0].cache.SetShard(ws[0].shard)
		f.lead = nil
	}
	if f.ckptNS > 0 {
		// Keep only what SaveCheckpoint reads of worker 0.
		f.lead = &worker{mut: ws[0].mut, cache: ws[0].cache}
	}
	for _, w := range ws {
		go w.run()
	}
	defer func() {
		for _, w := range ws {
			close(w.leases)
		}
	}()

	// Warm-up executes every seed present at the first run once (Figure
	// 11 step ①); entries admitted meanwhile are not warm-up seeds.
	if !f.resumed {
		f.warmNext, f.warmEnd = 0, f.queue.Len()
	}
	sampleBucket := f.execs / max(1, f.cfg.SampleEveryExecs)
	active := make([]bool, n)
	for i := range active {
		active[i] = f.clock.Now() < f.cfg.BudgetNS
	}
	for {
		if f.syncHook != nil {
			// Campaign sync pump: between rounds every worker is parked,
			// so the queue and store are safe to graft foreign entries
			// into — the same exclusive-access window MergeFrom uses.
			f.syncHook()
		}
		if f.ckptNS > 0 && f.clock.Now() >= f.ckptNS {
			break
		}
		var ids []int
		for i, a := range active {
			if !a {
				continue
			}
			// The worker is parked between its last result hand-off and
			// this lease, so refreshing its private virgins from the
			// authoritative pair is exclusive access (see
			// instr.Virgin.MergeFrom).
			ws[i].branchVirgin.MergeFrom(f.branchVirgin)
			ws[i].pmVirgin.MergeFrom(f.pmVirgin)
			item := workItem{execs: f.execs}
			if f.warmNext < f.warmEnd {
				item.lease, item.seedRun = &fuzz.Lease{Parent: f.queue.Get(f.warmNext)}, true
				f.warmNext++
			} else if item.lease = f.queue.Lease(energyBase); item.lease == nil {
				active[i] = false
				continue
			}
			ws[i].leases <- item
			ids = append(ids, i)
		}
		if len(ids) == 0 {
			break
		}
		for _, i := range ids {
			b := <-ws[i].results
			f.collectBatch(ws[i], b, &sampleBucket)
			if b.done {
				active[i] = false
			}
		}
	}

	if f.ckptNS == 0 {
		// A checkpoint has no sample at its boundary: the uninterrupted
		// session has none there, and the resumed run emits the final one.
		f.sample(true)
	}
	return &Result{
		Config:  f.cfg,
		Series:  f.series,
		Faults:  f.faults,
		Execs:   f.execs,
		SimNS:   f.clock.Now(),
		PMPaths: len(f.pmPathSigs),
		Queue:   f.queue,
		Store:   f.store,
		Repros:  f.repros,

		InvariantSet:        f.invSet,
		InvariantChecks:     f.invStats.checks,
		InvariantViolations: f.invStats.violations,
		InvariantsDropped:   f.invStats.dropped,
	}
}

// collectBatch wraps mergeBatch with telemetry and buffer reuse: the
// worker's metrics shard is folded into the registry (the worker is
// parked between its result hand-off and its next lease, so this is the
// same exclusive-access window Virgin.MergeFrom uses), a round event
// marks the batch boundary in the trace, the merge itself is timed, and
// the batch's buffers go back to the worker's arena.
// Events emitted during the merge are attributed to the batch's worker
// (1-based; 0 is the coordinator).
func (f *Fuzzer) collectBatch(w *worker, b *workerBatch, sampleBucket *int) {
	if f.tele != nil {
		f.tele.M.MergeShard(w.shard)
		f.obsWorker = w.id + 1
		f.tele.Trace().Emit(obs.RoundEvent{
			T: "round", SimNS: b.clockNS, Worker: w.id + 1,
			Outcomes: len(b.outcomes), Done: b.done,
		})
	}
	t0 := f.shard.Begin()
	f.mergeBatch(b, sampleBucket)
	f.shard.End(obs.StageMerge, t0)
	f.obsWorker = 0
	w.reclaim(b)
}

// mergeBatch folds one worker batch into the authoritative session
// state, in outcome order, and advances the merged clock to the
// worker's. The worker already pre-filtered against its private
// virgins, so shipped maps are re-merged here against the fleet-wide
// pair, which makes the final admission and Favored decisions.
func (f *Fuzzer) mergeBatch(b *workerBatch, sampleBucket *int) {
	if d := b.clockNS - f.clock.Now(); d > 0 {
		f.clock.Charge(d)
	}
	for _, o := range b.outcomes {
		f.execs += o.execs
		var newBranchSlot, newBranchBucket, newPMSlot, newPMBucket bool
		if o.tracer != nil {
			newBranchSlot, newBranchBucket = f.branchVirgin.Merge(o.tracer.BranchMap())
			newPMSlot, newPMBucket = f.pmVirgin.Merge(o.tracer.PMMap())
		}
		if o.hasPMSig {
			f.pmPathSigs[o.pmSig] = struct{}{}
		}
		if o.setupPM != nil && f.recVirgin != nil {
			// Recovery accounting: fold the execution's setup-phase PM map
			// into the session's recovery virgin.
			f.recVirgin.Merge(o.setupPM)
		}
		if o.faulted {
			f.addFault(b.parent, o.input, o.faultMsg, o.simNS)
		} else {
			f.admitOutcome(b.parent, o, newBranchSlot || newBranchBucket, newPMSlot, newPMBucket)
		}
		// Sample against the merged time axis whenever the fleet-wide
		// execution count crosses a sampling interval (one outcome can
		// carry several executions from the crash-image sweep).
		interval := max(1, f.cfg.SampleEveryExecs)
		if f.execs/interval != *sampleBucket {
			*sampleBucket = f.execs / interval
			f.sample(false)
		}
	}
}

// admitOutcome applies corpus growth (Figure 11 steps ②–⑤) for one
// non-faulting worker execution.
func (f *Fuzzer) admitOutcome(parent *fuzz.Entry, o *execOutcome, newBranch, newPMSlot, newPMBucket bool) {
	favored := f.favoredLevel(newPMSlot, newPMBucket)
	if !newBranch && favored == fuzz.FavoredLow {
		return
	}
	parentID := -1
	depth := 0
	if parent != nil {
		parentID = parent.ID
		depth = parent.Depth
	}
	e := &fuzz.Entry{
		Input:      append([]byte(nil), o.input...),
		ParentID:   parentID,
		Depth:      depth,
		Favored:    favored,
		NewBranch:  newBranch,
		NewPM:      newPMSlot || newPMBucket,
		FoundSimNS: o.simNS,
	}
	if o.inImage != nil {
		// Keep fuzzing on the same parent image.
		id, _, err := f.store.Put(o.inImage)
		if err == nil {
			e.ImageID = id
			e.HasImage = true
		}
	}
	f.queue.Add(e)
	f.obsAdmit(e)

	// The worker harvested images for locally new PM paths; keep them
	// only when the path is new fleet-wide (Figure 11 step ②). Crash
	// images are stored delta-encoded against the run's output image.
	if f.cfg.Features.ImgFuzzIndirect && o.outImage != nil && e.NewPM {
		outID, _ := f.addImageEntry(e, o.input, o.outImage, false, o.simNS)
		for i, ci := range o.crashImages {
			f.addImageEntryDelta(e, o.input, ci, true, o.crashClassKeys[i], o.simNS, outID, o.outImage)
		}
	}
	// The oracle runs on the coordinator goroutine (the checker is not
	// concurrency-safe) against the same test case the worker executed.
	if e.NewPM {
		f.oracleScan(e, o.input, o.inImage, o.simNS)
		f.invariantScan(e, o.input, o.inImage, o.simNS)
	}
}
