package core

import (
	"fmt"
	"runtime"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/instr"
	"pmfuzz/internal/invariant"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/oracle"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// Sample is one point of the coverage time series (Figure 13's y-axis
// over its x-axis).
type Sample struct {
	// SimNS is the simulated time of the sample.
	SimNS int64
	// Execs counts executions so far.
	Execs int
	// PMPaths is the number of distinct PM-path signatures covered — the
	// paper's "number of covered PM paths", where a PM path π_PM is a
	// sequence of PM nodes and two executions share a path exactly when
	// their classified PM counter-maps match.
	PMPaths int
	// BranchCov is the covered branch-edge slot count.
	BranchCov int
	// QueueLen and Images track corpus growth.
	QueueLen int
	Images   int
}

// Fault is a captured program fault or inconsistency (the crash bucket).
type Fault struct {
	// Input and image that triggered the fault.
	Input    []byte
	ImageID  imgstore.ID
	HasImage bool
	// Msg is the deduplication key (panic value or error text).
	Msg string
	// Execs is when the fault was first seen.
	Execs int
	// SimNS is the simulated time of first detection (§5.4.1's
	// time-to-detection).
	SimNS int64
}

// Result is the outcome of a fuzzing session.
type Result struct {
	Config  Config
	Series  []Sample
	Faults  []Fault
	Execs   int
	SimNS   int64
	PMPaths int
	// Queue and Store are retained so testing tools can replay the
	// generated test cases (step ⑤ of Figure 9).
	Queue *fuzz.Queue
	Store *imgstore.Store
	// Repros holds the minimized differential-oracle repro bundles
	// (capped at maxRepros; empty unless Config.OracleCheck).
	Repros []*oracle.Bundle
	// Stage2Campaigns counts completed stage-2 sub-campaigns and
	// Stage2Execs the executions they consumed (recovery runs included);
	// both are zero with stage 2 off.
	Stage2Campaigns int
	Stage2Execs     int
	// Recovery is the recovery-phase PM virgin map: the (site, bucket)
	// coverage states observed while opening crash images — pool
	// validation, transaction recovery, workload recovery hooks — before
	// any command ran. Nil unless Config.TrackRecovery (or stage 2,
	// which forces it). RecoverySites is its CoveredStates count.
	Recovery      *instr.Virgin
	RecoverySites int
	// InvariantSet is the invariant oracle's frozen mined set (nil
	// unless Config.InvariantCheck and mining completed); the counters
	// mirror the pmfuzz_invariants_* stats keys.
	InvariantSet        *invariant.Set
	InvariantChecks     int
	InvariantViolations int
	InvariantsDropped   int
}

// Fuzzer is one fuzzing session.
type Fuzzer struct {
	cfg   Config
	bugs  *bugs.Set
	queue *fuzz.Queue
	store *imgstore.Store
	// clock is the session's merged time axis: the maximum over the
	// worker clock shards, advanced as their batches merge.
	clock *pmem.Clock

	branchVirgin *instr.Virgin
	pmVirgin     *instr.Virgin
	// pmPathSigs holds the distinct PM-path signatures observed — the
	// paper's "number of covered PM paths" (each distinct PM-operation
	// sequence is one path).
	pmPathSigs map[uint64]struct{}

	seedInput []byte   // fixed input for direct image fuzzing
	seedDict  [][]byte // mutation token dictionary (shared with workers)
	execs     int
	series    []Sample
	faults    []Fault
	faultMsgs map[string]bool

	// arena is the coordinator's execution reuse handle (persistent-mode
	// analog), used by stage 2's recovery runs. Workers get their own.
	arena *executor.Arena

	// oracleCk is the differential crash-consistency checker (nil unless
	// Config.OracleCheck). It owns private arenas and runs off the
	// simulated clock, so its replays never perturb the trajectory. Used
	// only from the coordinator goroutine.
	oracleCk     *oracle.Checker
	oracleChecks int
	repros       []*oracle.Bundle

	// Invariant-oracle state (nil/zero unless Config.InvariantCheck).
	// The session mines the first invariantMineObs favored new-PM-path
	// entries into invMiner, freezes the surviving rules as invSet, and
	// judges subsequent entries against it ("mine then freeze").
	// invStats aggregates for the gauges/fuzzer_stats keys; its checks
	// count is what InvariantMaxChecks caps. Same off-clock,
	// off-trajectory discipline as the differential oracle.
	invCk    *invariant.Checker
	invMiner *invariant.Miner
	invSet   *invariant.Set
	invObs   int
	// invFed lists the queue IDs of the entries fed to invMiner, in
	// order: what a checkpoint taken before the set freezes replays to
	// rebuild the miner's evidence.
	invFed   []int
	invStats invStats

	// tele is the attached telemetry session (nil when disabled); shard
	// is the coordinator's private metrics shard, merged into tele.M at
	// sample boundaries. Workers carry their own shards. Telemetry is
	// strictly read-only: with tele nil or attached, the session's
	// trajectory, image hashes, and faults are bit-identical.
	tele  *obs.Session
	shard *obs.Shard
	// obsWorker attributes trace events to their producing worker: 0 for
	// the coordinator, i+1 while worker i's batch is being merged.
	obsWorker int

	// Two-stage pipeline state. stage is 1 for the session fuzzer and 2
	// inside a sub-campaign (where iter/campaign identify the promotion
	// round and campaign ordinal); promoter collects stage-2 candidates
	// (nil with stage 2 off — stage 1 then schedules crash images inline
	// exactly as before); recVirgin accumulates recovery-phase PM
	// coverage (nil unless Config.TrackRecovery).
	stage     int
	iter      int
	campaign  int
	promoter  *promoter
	recVirgin *instr.Virgin
	// stage2Campaigns/stage2Execs mirror the Result fields during the
	// run for gauge pushes.
	stage2Campaigns int
	stage2Execs     int

	// syncHook, when set, is called between coordinator rounds — the
	// only points where the campaign sync layer may graft foreign corpus
	// entries into the session. Nil (the default) leaves the trajectory
	// untouched.
	syncHook func()

	// Checkpoint/resume state. ckptNS, when positive, is the checkpoint
	// instant: leasing stops at the first round boundary where the
	// merged clock has reached it, and end-of-session finalization
	// (forced sample, end event, stage 2) is left to the resumed run.
	// resumed suppresses start-of-session events so a resumed trace
	// continues the checkpointed one seamlessly. reproPrior counts repro
	// bundles minimized before a checkpoint, keeping the bundle cap's
	// gating identical across a resume (the bundles themselves are not
	// serialized).
	ckptNS     int64
	resumed    bool
	reproPrior int
	// warmNext is the queue index of the next seed warm-up run; the
	// warm-up covers the entries [0, warmEnd) present when the session
	// first ran.
	warmNext, warmEnd int
	// lead holds worker 0's mutator and image cache: a checkpoint-mode
	// run keeps them for SaveCheckpoint, and RestoreCheckpoint sets them
	// so the resumed run's worker 0 continues them.
	lead *worker
}

// SetSyncHook registers the campaign sync layer's pump (nil detaches).
// The hook runs on the session's coordinating goroutine at scheduling
// boundaries, where the queue and store are safe to grow.
func (f *Fuzzer) SetSyncHook(fn func()) { f.syncHook = fn }

// SimNow exposes the session's simulated clock (for sync event stamps).
func (f *Fuzzer) SimNow() int64 { return f.clock.Now() }

// Store exposes the session's image store (for store-to-store sync).
func (f *Fuzzer) Store() *imgstore.Store { return f.store }

// New builds a fuzzer for the configuration. bugSet configures the
// target's bug flags (nil = fixed program).
func New(cfg Config, bugSet *bugs.Set) (*Fuzzer, error) {
	prog, err := workloads.New(cfg.Workload)
	if err != nil {
		return nil, err
	}
	seeds := prog.SeedInputs()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: workload %q has no seed inputs", cfg.Workload)
	}
	cacheCap := 0
	if cfg.Features.SysOpt {
		cacheCap = imageCacheCap
	}
	dict := fuzz.DictFor(seeds)
	f := &Fuzzer{
		cfg:          cfg,
		bugs:         bugSet,
		queue:        fuzz.NewQueue(cfg.Seed + 1),
		store:        imgstore.New(cacheCap),
		clock:        pmem.NewClock(),
		branchVirgin: instr.NewVirgin(),
		pmVirgin:     instr.NewVirgin(),
		seedInput:    seeds[0],
		seedDict:     dict,
		faultMsgs:    map[string]bool{},
		pmPathSigs:   map[uint64]struct{}{},
		arena:        executor.NewArena(),
	}
	if cfg.OracleCheck {
		f.oracleCk = oracle.NewChecker()
	}
	if cfg.InvariantCheck {
		f.invCk = invariant.NewChecker()
		f.invMiner = invariant.NewMiner(cfg.Workload)
	}
	if cfg.twoStage() {
		// Stage 2 needs recovery accounting for its coverage claim, and
		// crash images leave the stage-1 schedule: they are routed to the
		// promotion queue instead of being fuzzed inline.
		f.cfg.TrackRecovery = true
		f.promoter = newPromoter(!cfg.NoPruneSweep, f.store)
		f.queue.SetStage2Routing(true)
	}
	if f.cfg.TrackRecovery {
		f.recVirgin = instr.NewVirgin()
	}
	for _, s := range seeds {
		f.queue.Add(&fuzz.Entry{Input: s, ParentID: -1, Favored: fuzz.FavoredHigh})
	}
	return f, nil
}

// SetTelemetry attaches a telemetry session (nil detaches). Must be
// called before Run.
func (f *Fuzzer) SetTelemetry(s *obs.Session) {
	f.tele = s
	f.shard = nil
	if s != nil {
		f.shard = &obs.Shard{}
	}
	f.store.SetShard(f.shard)
	if f.oracleCk != nil {
		f.oracleCk.SetShard(f.shard)
	}
	if f.invCk != nil {
		f.invCk.SetShard(f.shard)
	}
}

// obsStart emits the trace's session header.
func (f *Fuzzer) obsStart(workers int) {
	if f.tele == nil {
		return
	}
	f.tele.Trace().Emit(obs.SessionEvent{
		T: "session", Workload: f.cfg.Workload, Seed: f.cfg.Seed,
		Workers: workers, BudgetNS: f.cfg.BudgetNS,
	})
}

// obsFinish pushes the final registry state and closes the trace's
// event stream with the session totals.
func (f *Fuzzer) obsFinish(res *Result) {
	if f.tele == nil {
		return
	}
	f.pushObs(res.SimNS)
	f.tele.Trace().Emit(obs.EndEvent{
		T: "end", SimNS: res.SimNS, Execs: res.Execs, PMPaths: res.PMPaths,
		QueueLen: res.Queue.Len(), Images: res.Store.Len(), Faults: len(res.Faults),
	})
}

// obsAdmit records a corpus admission (entry already queued).
func (f *Fuzzer) obsAdmit(e *fuzz.Entry) {
	if f.tele == nil {
		return
	}
	f.tele.M.CountAdmit()
	f.tele.Trace().Emit(obs.AdmitEvent{
		T: "admit", SimNS: e.FoundSimNS, Worker: f.obsWorker,
		ID: e.ID, Parent: e.ParentID, Favored: e.Favored,
		NewBranch: e.NewBranch, NewPM: e.NewPM,
		CrashImage: e.IsCrashImage, HasImage: e.HasImage,
		Stage: f.stage,
	})
}

// obsHarvest records a freshly stored generated image's queue entry.
func (f *Fuzzer) obsHarvest(e *fuzz.Entry, isCrash bool) {
	if f.tele == nil {
		return
	}
	f.tele.M.CountHarvest(isCrash)
	f.tele.Trace().Emit(obs.HarvestEvent{
		T: "harvest", SimNS: e.FoundSimNS, Worker: f.obsWorker,
		ID: e.ID, Parent: e.ParentID, Image: e.ImageID.String(),
		CrashImage: isCrash, Stage: f.stage,
	})
}

// obsFault records a deduplicated fault bucket's first detection.
func (f *Fuzzer) obsFault(fault Fault) {
	if f.tele == nil {
		return
	}
	f.tele.M.CountUniqueFault()
	f.tele.Trace().Emit(obs.FaultEvent{
		T: "fault", SimNS: fault.SimNS, Worker: f.obsWorker,
		Execs: fault.Execs, Msg: fault.Msg, Stage: f.stage,
	})
}

// obsStageEnter/obsStageExit bracket a pipeline stage in the trace:
// stage 1's fuzzing loop or one stage-2 sub-campaign. Emitted only for
// two-stage sessions, so single-stage traces stay byte-identical.
func (f *Fuzzer) obsStageEnter(ev obs.StageEnterEvent) {
	if f.tele == nil {
		return
	}
	ev.T = "stage_enter"
	f.tele.Trace().Emit(ev)
}

func (f *Fuzzer) obsStageExit(ev obs.StageExitEvent) {
	if f.tele == nil {
		return
	}
	ev.T = "stage_exit"
	f.tele.Trace().Emit(ev)
}

// pushObs publishes the session's gauge state to the registry and folds
// in the coordinating goroutine's shard. Called at sample boundaries —
// all sources (queue, virgins, store, path set) are owned or safely
// readable by the coordinating goroutine at those points.
func (f *Fuzzer) pushObs(simNS int64) {
	if f.tele == nil {
		return
	}
	f.tele.M.MergeShard(f.shard)
	qs := f.queue.ObsStats()
	f.tele.M.SetGauges(obs.Gauges{
		SimNS: simNS, QueueLen: f.queue.Len(), PMPaths: len(f.pmPathSigs),
		BranchCov: f.branchVirgin.CoveredStates(),
		Images:    f.store.Len(), CrashImages: qs.CrashImages,
		FavLow: qs.FavLow, FavMed: qs.FavMed, FavHigh: qs.FavHigh,
		PendingFavs: qs.PendingFavs, PendingTotal: qs.PendingTotal,
		MaxDepth: qs.MaxDepth,
	})
	if f.promoter != nil || f.recVirgin != nil {
		g := obs.Stage2Gauges{
			Campaigns: f.stage2Campaigns,
			Execs:     int64(f.stage2Execs),
		}
		if f.promoter != nil {
			g.Promoted = f.promoter.promoted
			g.Pending = len(f.promoter.pending)
		}
		if f.recVirgin != nil {
			g.RecoverySites = f.recVirgin.CoveredStates()
		}
		f.tele.M.SetStage2(g)
	}
	if f.invCk != nil {
		f.tele.M.SetInvariant(obs.InvariantGauges{
			Mined: f.invStats.mined, Checks: f.invStats.checks,
			Violations: f.invStats.violations, Dropped: f.invStats.dropped,
		})
	}
	st := f.store.Stats()
	f.tele.M.SetStoreStats(obs.StoreStats{
		Puts: int64(st.Puts), Dedups: int64(st.Dedups), DeltaPuts: int64(st.DeltaPuts),
		CacheHits: int64(st.CacheHits), CacheMisses: int64(st.CacheMisses),
		RawBytes: st.RawBytes, CompressedBytes: st.CompressedBytes,
		ClassHits: st.ClassHits, ClassMisses: st.ClassMisses,
	})
}

// SeedMeta carries an exported corpus entry's scheduling metadata so an
// imported seed keeps its identity: crash images stay crash images, the
// test-case tree keeps its parent edges, and Algorithm 2 priorities
// survive the roundtrip.
type SeedMeta struct {
	// ParentID is the entry's parent in the importing queue's ID space
	// (-1 for roots); the importer remaps exported IDs before calling.
	ParentID     int
	IsCrashImage bool
	Favored      int
	Depth        int
	NewBranch    bool
	NewPM        bool
	// Stage/Iter carry the two-stage corpus layout (stage=2,iter=N
	// directories) through an export/import roundtrip. An imported
	// stage-2 entry is schedulable again unless the importing session
	// also runs two-stage, in which case its crash image re-enters the
	// promotion queue.
	Stage int
	Iter  int
	// FoundSimNS is the entry's original discovery time, preserved so an
	// export→import→export roundtrip reproduces the corpus tree
	// byte-identically (modulo the ID remap). Foreign imports ignore it —
	// a synced entry's discovery time is the importing session's clock.
	FoundSimNS int64
}

// AddSeedMeta injects an extra seed test case (input plus optional
// starting image) before Run — used to resume fuzzing from an exported
// corpus. Without metadata (nil) the entry enters as a high-priority
// root. It returns the new entry's queue ID so importers can remap
// parent references for subsequent entries.
func (f *Fuzzer) AddSeedMeta(input []byte, img *pmem.Image, meta *SeedMeta) (int, error) {
	e := &fuzz.Entry{
		Input:    append([]byte(nil), input...),
		ParentID: -1,
		Favored:  fuzz.FavoredHigh,
	}
	if meta != nil {
		e.ParentID = meta.ParentID
		e.IsCrashImage = meta.IsCrashImage
		e.Favored = meta.Favored
		e.Depth = meta.Depth
		e.NewBranch = meta.NewBranch
		e.NewPM = meta.NewPM
		e.Stage = meta.Stage
		e.Iter = meta.Iter
		e.FoundSimNS = meta.FoundSimNS
	}
	if img != nil {
		id, _, err := f.store.Put(img)
		if err != nil {
			return 0, err
		}
		e.ImageID = id
		e.HasImage = true
	}
	if f.promoter != nil && e.IsCrashImage && e.HasImage {
		// A two-stage session routes imported crash images to the
		// promotion queue like freshly harvested ones.
		e.Stage = 2
		f.promoter.consider(e)
	}
	f.queue.Add(e)
	return e.ID, nil
}

// AddForeignSeed grafts a peer's corpus entry into the session: the
// input plus a reference to an image already imported store-to-store
// (imageID must be present in the store when hasImage is set). The
// entry is marked Foreign so the sync layer never re-publishes it, and
// its discovery time is the current simulated clock — mid-run imports
// slot into the trace like any admission. Returns the new entry's queue
// ID, or an error when the referenced image is missing.
func (f *Fuzzer) AddForeignSeed(input []byte, imageID imgstore.ID, hasImage bool, meta *SeedMeta) (int, error) {
	e := &fuzz.Entry{
		Input:      append([]byte(nil), input...),
		ParentID:   -1,
		Favored:    fuzz.FavoredHigh,
		Foreign:    true,
		FoundSimNS: f.clock.Now(),
	}
	if meta != nil {
		e.IsCrashImage = meta.IsCrashImage
		e.Favored = meta.Favored
		e.Depth = meta.Depth
		e.NewBranch = meta.NewBranch
		e.NewPM = meta.NewPM
		e.Stage = meta.Stage
		e.Iter = meta.Iter
	}
	if hasImage {
		if !f.store.Has(imageID) {
			return 0, fmt.Errorf("core: foreign seed references image %s not in store", imageID)
		}
		e.ImageID = imageID
		e.HasImage = true
	}
	if f.promoter != nil && e.IsCrashImage && e.HasImage {
		e.Stage = 2
		f.promoter.consider(e)
	}
	f.queue.Add(e)
	return e.ID, nil
}

// CorpusEntries exposes the current queue contents (read-only use, for
// inspecting imported corpora before Run).
func (f *Fuzzer) CorpusEntries() []*fuzz.Entry { return f.queue.Entries() }

// CorpusQueue exposes the live queue — the same object a Result carries
// — so an imported corpus can be re-exported without running a session.
func (f *Fuzzer) CorpusQueue() *fuzz.Queue { return f.queue }

// Run executes the fuzzing session until the simulated budget is
// exhausted and returns the session result. The session runs as a fleet
// of Config.Workers workers (0 selects runtime.GOMAXPROCS(0); one worker
// is a fleet of one): worker goroutines execute batch leases against
// private coverage shards while a coordinator merges bitmaps,
// deduplicates PM-path signatures and faults, and grows the corpus.
func (f *Fuzzer) Run() *Result {
	workers := f.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Sub-campaign fuzzers share the session's telemetry: the session
	// header/footer and stage events are the parent's to emit. A resumed
	// session skips them too — its trace continues the checkpointed one,
	// which already carries them.
	if f.stage != 2 && !f.resumed {
		f.obsStart(workers)
	}
	twoStage := f.cfg.twoStage() && f.stage != 2
	if twoStage && !f.resumed {
		f.obsStageEnter(obs.StageEnterEvent{
			Stage: 1, Root: -1, Workers: workers, BudgetNS: f.cfg.BudgetNS,
		})
	}
	res := f.runFleet(workers)
	// In checkpoint mode the session freezes at a stage-1 round
	// boundary: stage 2 and the trace footer belong to the resumed run
	// that eventually finishes.
	if twoStage && f.ckptNS == 0 {
		f.obsStageExit(obs.StageExitEvent{
			SimNS: res.SimNS, Stage: 1, Execs: res.Execs, PMPaths: res.PMPaths,
			RecoverySites: f.recoverySites(),
		})
		f.runStage2(res)
	}
	if f.recVirgin != nil {
		res.Recovery = f.recVirgin
		res.RecoverySites = f.recVirgin.CoveredStates()
	}
	if f.stage != 2 && f.ckptNS == 0 {
		f.obsFinish(res)
	}
	return res
}

// recoverySites is the current recovery-phase coverage state count (0
// when tracking is off).
func (f *Fuzzer) recoverySites() int {
	if f.recVirgin == nil {
		return 0
	}
	return f.recVirgin.CoveredStates()
}

// maxRepros caps the minimized repro bundles retained per session.
const maxRepros = 8

// oracleScan runs the differential crash-consistency oracle on one
// favored test case: sweep its ordering points, recover every crash
// image, and require each recovered state to be explainable by the
// shadow model. Violations become faults (deduplicated by message) and,
// while the repro cap allows, delta-debugged repro bundles. The oracle
// runs entirely off the simulated clock on its own arenas.
func (f *Fuzzer) oracleScan(parent *fuzz.Entry, input []byte, img *pmem.Image, simNS int64) {
	if f.oracleCk == nil {
		return
	}
	if f.oracleChecks >= oracleMaxChecks {
		return
	}
	f.oracleChecks++
	tc := f.testCase(input, img)
	rep := f.oracleCk.Check(tc, oracle.Options{
		MaxCommands:   maxCommands,
		MaxViolations: 1,
		NoPrune:       f.cfg.NoPruneSweep,
	})
	if !f.cfg.NoPruneSweep && rep.Classes > 0 {
		// Per-class telemetry: tallies for fuzzer_stats, one trace event
		// per pruned sweep. Read-only — the oracle stays off-trajectory.
		f.store.AddClassStats(int64(rep.ClassHits), int64(rep.Classes))
		if f.tele != nil {
			f.tele.Trace().Emit(obs.ClassEvent{
				T: "class", SimNS: simNS, Worker: f.obsWorker,
				Classes: rep.Classes, Hits: rep.ClassHits,
				Checked: rep.Checked, Recoveries: rep.Recoveries, Stage: f.stage,
			})
		}
	}
	for _, v := range rep.Violations {
		// Minimize only novel violations (same bucket key as addFault):
		// re-finding a known violation through another favored entry
		// should not cost a delta-debugging pass or a duplicate bundle.
		fresh := !f.faultMsgs[v.String()]
		f.addFault(parent, input, v.String(), simNS)
		if fresh && f.reproPrior+len(f.repros) < maxRepros {
			f.repros = append(f.repros,
				f.oracleCk.Minimize(tc, v, oracle.Options{MaxCommands: maxCommands}))
		}
		if parent != nil {
			// Flag the entry for the stage-2 promotion policy: its crash
			// images recover to states the shadow model cannot explain,
			// making them the highest-value sub-campaign roots.
			parent.OracleFlagged = true
		}
	}
}

// invariantMineObs is how many favored new-PM-path entries the
// invariant oracle observes before freezing the mined set.
const invariantMineObs = 3

// defaultInvariantMaxChecks bounds invariant sweeps when the config
// doesn't.
const defaultInvariantMaxChecks = 32

// invStats aggregates invariant-oracle activity for gauges and
// fuzzer_stats.
type invStats struct {
	mined      int
	checks     int
	violations int
	dropped    int
}

// invariantScan feeds one favored test case to the invariant oracle.
// While the set is unfrozen, the case (full run plus every command
// prefix) is mined as observations; once invariantMineObs clean cases
// have been observed, the surviving rules freeze and subsequent cases'
// crash images are judged against them. Violations flow through the
// same fault/minimizer/repro path as the differential oracle's. Runs
// entirely off the simulated clock on the checker's own arenas.
func (f *Fuzzer) invariantScan(parent *fuzz.Entry, input []byte, img *pmem.Image, simNS int64) {
	if f.invCk == nil {
		return
	}
	tc := f.testCase(input, img)
	if f.invSet == nil {
		// Mining phase. A faulting prefix just skips the observation —
		// mining requires clean executions.
		if !f.mineObserve(parent.ID, tc) {
			return
		}
		f.invObs++
		if f.invObs >= invariantMineObs {
			f.invSet = f.invMiner.Mine()
			f.invStats.mined = f.invSet.Len()
			f.obsInvariant(simNS, nil)
		}
		return
	}
	maxChecks := f.cfg.InvariantMaxChecks
	if maxChecks <= 0 {
		maxChecks = defaultInvariantMaxChecks
	}
	if f.invStats.checks >= maxChecks {
		return
	}
	rep := f.invCk.Check(tc, f.invSet, invariant.Options{
		MaxCommands:   maxCommands,
		MaxViolations: 1,
		NoPrune:       f.cfg.NoPruneSweep,
	})
	f.invStats.checks++
	f.invStats.violations += len(rep.Violations)
	f.invStats.dropped += len(rep.Dropped)
	f.obsInvariant(simNS, rep)
	for _, v := range rep.Violations {
		fresh := !f.faultMsgs[v.String()]
		f.addFault(parent, input, v.String(), simNS)
		if fresh && f.reproPrior+len(f.repros) < maxRepros {
			if b := f.invCk.Minimize(tc, v, f.invSet, invariant.Options{MaxCommands: maxCommands}); b != nil {
				f.repros = append(f.repros, b)
			}
		}
		if parent != nil {
			parent.OracleFlagged = true
		}
	}
}

// mineObserve feeds queue entry id's test case to the miner and
// records the entry, so a checkpoint can replay the miner's evidence.
// It reports whether the case ran clean: a faulting case still feeds
// the command prefixes that ran before the fault.
func (f *Fuzzer) mineObserve(id int, tc executor.TestCase) bool {
	f.invFed = append(f.invFed, id)
	return f.invCk.Observe(f.invMiner, tc, invariant.Options{MaxCommands: maxCommands}) == nil
}

// testCase is the session's test case for an input on a start image.
func (f *Fuzzer) testCase(input []byte, img *pmem.Image) executor.TestCase {
	return executor.TestCase{Workload: f.cfg.Workload, Input: input, Image: img, Bugs: f.bugs, Seed: f.cfg.Seed}
}

// obsInvariant emits one "t":"inv" trace event: the mined-set freeze
// (rep nil) or one check's outcome. Emitted only with the feature on,
// so traces without -invariant stay byte-identical.
func (f *Fuzzer) obsInvariant(simNS int64, rep *invariant.Report) {
	if f.tele == nil {
		return
	}
	ev := obs.InvEvent{T: "inv", SimNS: simNS, Worker: f.obsWorker, Stage: f.stage}
	if rep == nil {
		ev.Obs = f.invObs
		ev.Mined = f.invStats.mined
	} else {
		ev.Checked = rep.Checked
		ev.Violations = len(rep.Violations)
		ev.Dropped = len(rep.Dropped)
		ev.Classes = rep.Classes
		ev.Hits = rep.ClassHits
		ev.Recoveries = rep.Recoveries
	}
	f.tele.Trace().Emit(ev)
}

// InvariantSet returns the frozen mined set (nil while mining or with
// the feature off). The campaign sync layer publishes it to peers.
func (f *Fuzzer) InvariantSet() *invariant.Set {
	return f.invSet
}

// AdoptInvariantSet installs a peer-mined set, skipping the local
// mining phase. Only applies while the feature is on, no local set has
// frozen yet, and the set matches the workload; reports whether the
// set was adopted.
func (f *Fuzzer) AdoptInvariantSet(s *invariant.Set) bool {
	if f.invCk == nil || f.invSet != nil || s.Len() == 0 || s.Workload != f.cfg.Workload {
		return false
	}
	f.invSet = s
	f.invStats.mined = s.Len()
	return true
}

// favoredLevel maps PM counter-map novelty to an Algorithm 2 priority.
func (f *Fuzzer) favoredLevel(newPMSlot, newPMBucket bool) int {
	if f.cfg.Features.PMPathOpt {
		switch {
		case newPMSlot:
			return fuzz.FavoredHigh
		case newPMBucket:
			return fuzz.FavoredMedium
		}
	}
	return fuzz.FavoredLow
}

// addImageEntry enqueues a freshly generated image (normal or crash) as
// a new parent at the given discovery time, returning the image's store
// ID (valid even for deduplicated images, so it can serve as a delta
// base) and whether a queue entry was added.
func (f *Fuzzer) addImageEntry(parent *fuzz.Entry, input []byte, img *pmem.Image, isCrash bool, foundNS int64) (imgstore.ID, bool) {
	return f.addImageEntryDelta(parent, input, img, isCrash, 0, foundNS, imgstore.ID{}, nil)
}

// addImageEntryDelta is addImageEntry with a delta base: when base is an
// image already in the store under baseID, the new image is stored as
// compressed difference runs against it (crash images share most lines
// with their run's output image). The store falls back to full encoding
// when the base is unusable. classKey is the crash image's behavioral
// equivalence class (executor.CrashClassKey; 0 = unclassified), recorded
// on the entry for stage-2 promotion dedup.
func (f *Fuzzer) addImageEntryDelta(parent *fuzz.Entry, input []byte, img *pmem.Image, isCrash bool, classKey uint64, foundNS int64, baseID imgstore.ID, base *pmem.Image) (imgstore.ID, bool) {
	id, fresh, err := f.store.PutDelta(img, baseID, base)
	if err != nil || !fresh {
		return id, false // image reduction: identical images are dropped
	}
	parentID := -1
	depth := 0
	if parent != nil {
		parentID = parent.ID
		depth = parent.Depth + 1
	}
	e := &fuzz.Entry{
		Input:        append([]byte(nil), input...),
		ImageID:      id,
		HasImage:     true,
		IsCrashImage: isCrash,
		ParentID:     parentID,
		Depth:        depth,
		// Fresh images are the next iteration's inputs (Figure 11 step
		// ⑤): a new persistent state means unexplored PM paths, so they
		// start high priority and Algorithm 2 demotes their offspring.
		Favored:    fuzz.FavoredHigh,
		NewPM:      true,
		FoundSimNS: foundNS,
		ClassKey:   classKey,
	}
	if f.promoter != nil && isCrash {
		// Two-stage routing: crash images leave the stage-1 schedule and
		// queue up for stage-2 promotion instead (Stage must be set
		// before Add so the scheduler never counts the entry).
		e.Stage = 2
	}
	f.queue.Add(e)
	if f.promoter != nil && isCrash {
		f.promoter.consider(e)
	}
	f.obsHarvest(e, isCrash)
	return id, true
}

// addFault records a fault at the given detection time, deduplicating by
// message (the crash bucket key).
func (f *Fuzzer) addFault(parent *fuzz.Entry, input []byte, msg string, simNS int64) {
	if msg == "" || f.faultMsgs[msg] {
		return
	}
	f.faultMsgs[msg] = true
	fault := Fault{
		Input: append([]byte(nil), input...),
		Msg:   msg,
		Execs: f.execs,
		SimNS: simNS,
	}
	if parent != nil && parent.HasImage {
		fault.ImageID = parent.ImageID
		fault.HasImage = true
	}
	f.faults = append(f.faults, fault)
	f.obsFault(fault)
}

// sample appends a coverage sample at the merged clock's current time.
func (f *Fuzzer) sample(force bool) {
	simNS := f.clock.Now()
	f.pushObs(simNS)
	s := Sample{
		SimNS:     simNS,
		Execs:     f.execs,
		PMPaths:   len(f.pmPathSigs),
		BranchCov: f.branchVirgin.CoveredStates(),
		QueueLen:  f.queue.Len(),
		Images:    f.store.Len(),
	}
	if !force && len(f.series) > 0 {
		last := f.series[len(f.series)-1]
		if last.PMPaths == s.PMPaths && last.BranchCov == s.BranchCov && last.QueueLen == s.QueueLen {
			// Avoid unbounded flat series; keep endpoints accurate.
			if len(f.series) > 1 && f.series[len(f.series)-2].PMPaths == s.PMPaths {
				f.series[len(f.series)-1] = s
				return
			}
		}
	}
	f.series = append(f.series, s)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
