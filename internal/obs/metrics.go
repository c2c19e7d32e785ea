// Package obs is the fuzzing fleet's telemetry layer: an
// allocation-free, atomics-based registry of counters, gauges, and
// fixed-bucket histograms, fed through per-worker shards so the
// execution hot path never contends on shared state, plus the sinks
// that make a running session observable (AFL-style status lines,
// fuzzer_stats / plot_data files, a JSONL event trace, and an
// expvar/Prometheus HTTP endpoint).
//
// The hard rule of the package: telemetry is READ-ONLY. Nothing here
// feeds back into scheduling, mutation, simulated time, or any other
// engine decision — a session with telemetry attached is bit-identical
// (trajectories, image hashes, bug reports) to the same session without
// it. Wall-clock timestamps exist only inside metrics and sinks; the
// event trace carries simulated-time stamps exclusively, so traces are
// themselves deterministic per (Seed, Workers).
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Stage identifies a hot-path stage whose wall-clock time is accounted
// separately, answering "where does the time go" across the engine.
type Stage int

// The accounted stages: input/image mutation, target execution, the
// crash-image sweep (journaled run plus materialization), the
// coordinator's batch merge, image-store put/get, and the oracle's
// per-class representative checks.
const (
	StageMutate Stage = iota
	StageExec
	StageSweep
	StageMerge
	StagePut
	StageGet
	StageRepCheck
	numStages
)

// NumStages is the number of accounted stages.
const NumStages = int(numStages)

var stageNames = [numStages]string{"mutate", "exec", "sweep", "merge", "imgstore_put", "imgstore_get", "rep_check"}

// String returns the stage's metric label.
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return "unknown"
	}
	return stageNames[s]
}

// HistBuckets is the fixed bucket count of the execution-latency
// histogram: power-of-two wall-clock buckets from 256 ns up (the last
// bucket is unbounded).
const HistBuckets = 24

// histMinShift makes bucket 0 cover (0, 256ns].
const histMinShift = 8

// histBucket maps a duration in nanoseconds to its bucket index.
func histBucket(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) - histMinShift
	if b < 0 {
		b = 0
	}
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// HistUpperNS returns the inclusive upper bound of bucket i in
// nanoseconds, or -1 for the final unbounded bucket.
func HistUpperNS(i int) int64 {
	if i >= HistBuckets-1 {
		return -1
	}
	return 1 << uint(histMinShift+i)
}

// Hist is a fixed-bucket latency histogram (single-owner, no atomics).
type Hist [HistBuckets]int64

// Observe counts one duration.
func (h *Hist) Observe(ns int64) { h[histBucket(ns)]++ }

// Shard is one worker's private metrics shard: plain counters with a
// single goroutine owner, merged into the shared Metrics by the
// coordinator while the worker is parked between batches (the same
// exclusive-access window instr.Virgin.MergeFrom relies on). The hot
// path therefore never touches a shared cache line. All methods are
// nil-receiver safe so an instrumented call site costs one predicted
// branch when telemetry is off.
type Shard struct {
	// Execs counts target executions; Hangs the executions that blew
	// the PM-op limit; Faults the executions that panicked or failed a
	// consistency check (raw, not deduplicated).
	Execs, Hangs, Faults int64
	// StageNS / StageOps accumulate wall nanoseconds and entry counts
	// per accounted stage.
	StageNS  [numStages]int64
	StageOps [numStages]int64
	// LeaseNS / IdleNS split a worker's wall time into lease processing
	// and waiting for the coordinator; Rounds counts leases.
	LeaseNS, IdleNS int64
	Rounds          int64
	// ExecHist is the per-execution wall-latency histogram.
	ExecHist Hist
}

// Begin starts a stage timer. On a nil shard it returns the zero time
// and the matching End is a no-op.
func (s *Shard) Begin() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accounts the time since t0 to the stage.
func (s *Shard) End(st Stage, t0 time.Time) {
	if s == nil {
		return
	}
	s.StageNS[st] += time.Since(t0).Nanoseconds()
	s.StageOps[st]++
}

// RecordExec accounts one target execution: stage time, the latency
// histogram, and the exec/hang/fault counters. Hangs are counted apart
// from other faults, mirroring AFL's unique_hangs vs unique_crashes
// split.
func (s *Shard) RecordExec(d time.Duration, hang, faulted bool) {
	if s == nil {
		return
	}
	ns := d.Nanoseconds()
	s.Execs++
	s.StageNS[StageExec] += ns
	s.StageOps[StageExec]++
	s.ExecHist.Observe(ns)
	switch {
	case hang:
		s.Hangs++
	case faulted:
		s.Faults++
	}
}

// EndIdle accounts wall time spent parked waiting for a lease.
func (s *Shard) EndIdle(t0 time.Time) {
	if s == nil {
		return
	}
	s.IdleNS += time.Since(t0).Nanoseconds()
}

// EndLease accounts wall time spent processing one lease and counts the
// round.
func (s *Shard) EndLease(t0 time.Time) {
	if s == nil {
		return
	}
	s.LeaseNS += time.Since(t0).Nanoseconds()
	s.Rounds++
}

// Gauges is the point-in-time session state pushed by the engine's
// single coordinating goroutine at sample boundaries. Everything here
// is derived from state the coordinator already owns (queue, virgin
// maps, image store), so pushing it costs the engine nothing new.
type Gauges struct {
	SimNS                                             int64
	QueueLen, PMPaths, BranchCov, Images, CrashImages int
	FavLow, FavMed, FavHigh                           int
	PendingFavs, PendingTotal, MaxDepth               int
}

// Stage2Gauges is the two-stage scheduler's point-in-time state: how
// many crash-image sub-campaigns ran, how many images the promotion
// policy selected or still holds pending, the executions stage 2
// consumed, and the recovery-phase PM coverage states observed.
type Stage2Gauges struct {
	Campaigns, Promoted, Pending int
	Execs                        int64
	RecoverySites                int
}

// InvariantGauges is the invariant oracle's cumulative activity: the
// size of the frozen mined set, sweeps judged against it, violations
// found, and rules self-validation dropped. All zero with the feature
// off.
type InvariantGauges struct {
	Mined, Checks, Violations, Dropped int
}

// StoreStats mirrors the image store's counters (obs cannot import
// imgstore — the dependency points the other way). ClassHits/ClassMisses
// are the sweep-pruning equivalence-class counters: a miss is a fresh
// class, a hit a crash state deduplicated into an existing one.
type StoreStats struct {
	Puts, Dedups, DeltaPuts   int64
	CacheHits, CacheMisses    int64
	RawBytes, CompressedBytes int64
	ClassHits, ClassMisses    int64
}

// SyncStats is the campaign sync layer's cumulative counters: corpus
// entries published to and imported from the shared sync directory,
// imports skipped as duplicates, I/O errors tolerated, and blob bytes
// moved in each direction. Zero for solo sessions.
type SyncStats struct {
	Published, Imported, Dedup, Errors int64
	BytesIn, BytesOut                  int64
}

// Metrics is the shared registry: every field is an atomic scalar, so
// sink goroutines (status ticker, HTTP handlers) snapshot a running
// session without locks and without perturbing it. Writers are the
// coordinator (shard merges, gauge pushes, event counters); the hot
// path writes only to its private Shard.
type Metrics struct {
	workload, config string
	seed, budgetNS   int64
	workers          int
	start            time.Time

	execs, hangs, faults atomic.Int64
	stageNS              [numStages]atomic.Int64
	stageOps             [numStages]atomic.Int64
	leaseNS, idleNS      atomic.Int64
	rounds               atomic.Int64
	execHist             [HistBuckets]atomic.Int64

	admits, harvests, harvestsCrash atomic.Int64
	uniqueFaults                    atomic.Int64

	simNS                                             atomic.Int64
	queueLen, pmPaths, branchCov, images, crashImages atomic.Int64
	favLow, favMed, favHigh                           atomic.Int64
	pendingFavs, pendingTotal, maxDepth               atomic.Int64

	storePuts, storeDedups, storeDeltaPuts atomic.Int64
	cacheHits, cacheMisses                 atomic.Int64
	rawBytes, compressedBytes              atomic.Int64
	classHits, classMisses                 atomic.Int64

	stage2Campaigns, stage2Promoted, stage2Pending atomic.Int64
	stage2Execs, recoverySites                     atomic.Int64

	invMined, invChecks, invViolations, invDropped atomic.Int64

	syncPublished, syncImported, syncDedup, syncErrors atomic.Int64
	syncBytesIn, syncBytesOut                          atomic.Int64

	sinkErrors atomic.Int64
}

// NewMetrics creates a registry stamped with the session parameters.
func NewMetrics(workload, config string, workers int, seed, budgetNS int64) *Metrics {
	return &Metrics{
		workload: workload,
		config:   config,
		seed:     seed,
		budgetNS: budgetNS,
		workers:  workers,
		start:    time.Now(),
	}
}

// MergeShard folds a worker shard into the registry and zeroes it for
// the next round. Called only while the shard's owner is parked.
func (m *Metrics) MergeShard(s *Shard) {
	if m == nil || s == nil {
		return
	}
	m.execs.Add(s.Execs)
	m.hangs.Add(s.Hangs)
	m.faults.Add(s.Faults)
	for i := 0; i < int(numStages); i++ {
		m.stageNS[i].Add(s.StageNS[i])
		m.stageOps[i].Add(s.StageOps[i])
	}
	m.leaseNS.Add(s.LeaseNS)
	m.idleNS.Add(s.IdleNS)
	m.rounds.Add(s.Rounds)
	for i, c := range s.ExecHist {
		if c != 0 {
			m.execHist[i].Add(c)
		}
	}
	*s = Shard{}
}

// CountAdmit counts one input admission to the corpus.
func (m *Metrics) CountAdmit() { m.admits.Add(1) }

// CountHarvest counts one freshly stored generated image.
func (m *Metrics) CountHarvest(crash bool) {
	m.harvests.Add(1)
	if crash {
		m.harvestsCrash.Add(1)
	}
}

// CountUniqueFault counts one deduplicated fault bucket.
func (m *Metrics) CountUniqueFault() { m.uniqueFaults.Add(1) }

// CountSinkError counts one failed sink write (fuzzer_stats rewrite or
// plot_data append). Sinks are best-effort — a full disk must never
// stop the engine — but the failures must not vanish either: the count
// lands in the registry, the pmfuzz_sink_errors stats key, and the
// fleet monitor's per-member rows.
func (m *Metrics) CountSinkError() {
	if m == nil {
		return
	}
	m.sinkErrors.Add(1)
}

// SetGauges publishes a coordinator snapshot of session state.
func (m *Metrics) SetGauges(g Gauges) {
	m.simNS.Store(g.SimNS)
	m.queueLen.Store(int64(g.QueueLen))
	m.pmPaths.Store(int64(g.PMPaths))
	m.branchCov.Store(int64(g.BranchCov))
	m.images.Store(int64(g.Images))
	m.crashImages.Store(int64(g.CrashImages))
	m.favLow.Store(int64(g.FavLow))
	m.favMed.Store(int64(g.FavMed))
	m.favHigh.Store(int64(g.FavHigh))
	m.pendingFavs.Store(int64(g.PendingFavs))
	m.pendingTotal.Store(int64(g.PendingTotal))
	m.maxDepth.Store(int64(g.MaxDepth))
}

// SetStage2 publishes the two-stage scheduler's state.
func (m *Metrics) SetStage2(g Stage2Gauges) {
	m.stage2Campaigns.Store(int64(g.Campaigns))
	m.stage2Promoted.Store(int64(g.Promoted))
	m.stage2Pending.Store(int64(g.Pending))
	m.stage2Execs.Store(g.Execs)
	m.recoverySites.Store(int64(g.RecoverySites))
}

// SetInvariant publishes the invariant oracle's cumulative activity.
func (m *Metrics) SetInvariant(g InvariantGauges) {
	m.invMined.Store(int64(g.Mined))
	m.invChecks.Store(int64(g.Checks))
	m.invViolations.Store(int64(g.Violations))
	m.invDropped.Store(int64(g.Dropped))
}

// SetSyncStats publishes the campaign sync layer's counters. Nil-safe
// so the sync pump works on sessions without telemetry attached.
func (m *Metrics) SetSyncStats(st SyncStats) {
	if m == nil {
		return
	}
	m.syncPublished.Store(st.Published)
	m.syncImported.Store(st.Imported)
	m.syncDedup.Store(st.Dedup)
	m.syncErrors.Store(st.Errors)
	m.syncBytesIn.Store(st.BytesIn)
	m.syncBytesOut.Store(st.BytesOut)
}

// SetStoreStats publishes the image store's counters.
func (m *Metrics) SetStoreStats(st StoreStats) {
	m.storePuts.Store(st.Puts)
	m.storeDedups.Store(st.Dedups)
	m.storeDeltaPuts.Store(st.DeltaPuts)
	m.cacheHits.Store(st.CacheHits)
	m.cacheMisses.Store(st.CacheMisses)
	m.rawBytes.Store(st.RawBytes)
	m.compressedBytes.Store(st.CompressedBytes)
	m.classHits.Store(st.ClassHits)
	m.classMisses.Store(st.ClassMisses)
}

// StageSnap is one stage's accounted totals in a Snapshot.
type StageSnap struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
	Ops  int64  `json:"ops"`
}

// HistBucketSnap is one latency bucket in a Snapshot. UpperNS is -1 for
// the unbounded last bucket.
type HistBucketSnap struct {
	UpperNS int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// Snapshot is a plain-value copy of the registry for the sinks. Each
// field is read atomically; the set is consistent enough for reporting
// (not a single instant), exactly like imgstore.Stats.
type Snapshot struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	Seed     int64   `json:"seed"`
	Workers  int     `json:"workers"`
	BudgetNS int64   `json:"budget_ns"`
	WallSecs float64 `json:"wall_secs"`

	Execs        int64   `json:"execs"`
	ExecsPerSec  float64 `json:"execs_per_sec"`
	Hangs        int64   `json:"hangs"`
	Faults       int64   `json:"faults"`
	UniqueFaults int64   `json:"unique_faults"`

	SimNS       int64 `json:"sim_ns"`
	QueueLen    int64 `json:"queue_len"`
	PMPaths     int64 `json:"pm_paths"`
	BranchCov   int64 `json:"branch_cov"`
	Images      int64 `json:"images"`
	CrashImages int64 `json:"crash_images"`

	FavLow       int64 `json:"fav_low"`
	FavMed       int64 `json:"fav_med"`
	FavHigh      int64 `json:"fav_high"`
	PendingFavs  int64 `json:"pending_favs"`
	PendingTotal int64 `json:"pending_total"`
	MaxDepth     int64 `json:"max_depth"`

	Admits        int64 `json:"admits"`
	Harvests      int64 `json:"harvests"`
	HarvestsCrash int64 `json:"harvests_crash"`

	Rounds  int64 `json:"rounds"`
	LeaseNS int64 `json:"lease_ns"`
	IdleNS  int64 `json:"idle_ns"`

	Stages   []StageSnap      `json:"stages"`
	ExecHist []HistBucketSnap `json:"exec_hist"`

	Stage2Campaigns int64 `json:"stage2_campaigns"`
	Stage2Promoted  int64 `json:"stage2_promoted"`
	Stage2Pending   int64 `json:"stage2_pending"`
	Stage2Execs     int64 `json:"stage2_execs"`
	RecoverySites   int64 `json:"recovery_sites"`

	InvariantsMined     int64 `json:"invariants_mined"`
	InvariantChecks     int64 `json:"invariant_checks"`
	InvariantViolations int64 `json:"invariant_violations"`
	InvariantsDropped   int64 `json:"invariants_dropped"`

	StorePuts       int64 `json:"store_puts"`
	StoreDedups     int64 `json:"store_dedups"`
	StoreDeltaPuts  int64 `json:"store_delta_puts"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	RawBytes        int64 `json:"raw_bytes"`
	CompressedBytes int64 `json:"compressed_bytes"`
	ClassHits       int64 `json:"class_hits"`
	ClassMisses     int64 `json:"class_misses"`

	SyncPublished int64 `json:"sync_published"`
	SyncImported  int64 `json:"sync_imported"`
	SyncDedup     int64 `json:"sync_dedup"`
	SyncErrors    int64 `json:"sync_errors"`
	SyncBytesIn   int64 `json:"sync_bytes_in"`
	SyncBytesOut  int64 `json:"sync_bytes_out"`

	SinkErrors int64 `json:"sink_errors"`
}

// Snapshot copies the registry.
func (m *Metrics) Snapshot() Snapshot {
	wall := time.Since(m.start).Seconds()
	s := Snapshot{
		Workload: m.workload,
		Config:   m.config,
		Seed:     m.seed,
		Workers:  m.workers,
		BudgetNS: m.budgetNS,
		WallSecs: wall,

		Execs:        m.execs.Load(),
		Hangs:        m.hangs.Load(),
		Faults:       m.faults.Load(),
		UniqueFaults: m.uniqueFaults.Load(),

		SimNS:       m.simNS.Load(),
		QueueLen:    m.queueLen.Load(),
		PMPaths:     m.pmPaths.Load(),
		BranchCov:   m.branchCov.Load(),
		Images:      m.images.Load(),
		CrashImages: m.crashImages.Load(),

		FavLow:       m.favLow.Load(),
		FavMed:       m.favMed.Load(),
		FavHigh:      m.favHigh.Load(),
		PendingFavs:  m.pendingFavs.Load(),
		PendingTotal: m.pendingTotal.Load(),
		MaxDepth:     m.maxDepth.Load(),

		Admits:        m.admits.Load(),
		Harvests:      m.harvests.Load(),
		HarvestsCrash: m.harvestsCrash.Load(),

		Rounds:  m.rounds.Load(),
		LeaseNS: m.leaseNS.Load(),
		IdleNS:  m.idleNS.Load(),

		Stage2Campaigns: m.stage2Campaigns.Load(),
		Stage2Promoted:  m.stage2Promoted.Load(),
		Stage2Pending:   m.stage2Pending.Load(),
		Stage2Execs:     m.stage2Execs.Load(),
		RecoverySites:   m.recoverySites.Load(),

		InvariantsMined:     m.invMined.Load(),
		InvariantChecks:     m.invChecks.Load(),
		InvariantViolations: m.invViolations.Load(),
		InvariantsDropped:   m.invDropped.Load(),

		StorePuts:       m.storePuts.Load(),
		StoreDedups:     m.storeDedups.Load(),
		StoreDeltaPuts:  m.storeDeltaPuts.Load(),
		CacheHits:       m.cacheHits.Load(),
		CacheMisses:     m.cacheMisses.Load(),
		RawBytes:        m.rawBytes.Load(),
		CompressedBytes: m.compressedBytes.Load(),
		ClassHits:       m.classHits.Load(),
		ClassMisses:     m.classMisses.Load(),

		SyncPublished: m.syncPublished.Load(),
		SyncImported:  m.syncImported.Load(),
		SyncDedup:     m.syncDedup.Load(),
		SyncErrors:    m.syncErrors.Load(),
		SyncBytesIn:   m.syncBytesIn.Load(),
		SyncBytesOut:  m.syncBytesOut.Load(),

		SinkErrors: m.sinkErrors.Load(),
	}
	if wall > 0 {
		s.ExecsPerSec = float64(s.Execs) / wall
	}
	s.Stages = make([]StageSnap, numStages)
	for i := Stage(0); i < numStages; i++ {
		s.Stages[i] = StageSnap{Name: i.String(), NS: m.stageNS[i].Load(), Ops: m.stageOps[i].Load()}
	}
	s.ExecHist = make([]HistBucketSnap, HistBuckets)
	for i := range s.ExecHist {
		s.ExecHist[i] = HistBucketSnap{UpperNS: HistUpperNS(i), Count: m.execHist[i].Load()}
	}
	return s
}

// DedupRate is the fraction of image puts that hit an existing image.
func (s Snapshot) DedupRate() float64 {
	if s.StorePuts == 0 {
		return 0
	}
	return float64(s.StoreDedups) / float64(s.StorePuts)
}

// DeltaRate is the fraction of freshly stored images that were
// delta-encoded.
func (s Snapshot) DeltaRate() float64 {
	fresh := s.StorePuts - s.StoreDedups
	if fresh <= 0 {
		return 0
	}
	return float64(s.StoreDeltaPuts) / float64(fresh)
}

// CompressionRatio is raw/compressed stored bytes (0 when empty).
func (s Snapshot) CompressionRatio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.CompressedBytes)
}
