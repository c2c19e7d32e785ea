package core

// Whole-session checkpoint/resume. A checkpoint freezes a Workers=1
// session at a round boundary — queue entries and scheduler state, the
// queue's and worker 0's RNG draw counts, virgin maps, the simulated
// clock, the image store's blobs, worker 0's cache order, stage-2
// promotion state, the invariant oracle's state, and the seed warm-up
// position — so a resumed session
// with a larger budget continues the identical deterministic trajectory:
// the resumed run's JSONL trace concatenated onto the checkpointed run's
// is byte-identical to an uninterrupted session's (golden-pinned in CI).
//
// Worker 0's private virgin maps need no saving: with one worker they
// equal the authoritative pair at every round boundary, and the refresh
// before the first lease restores them.
//
// Deliberately not serialized: minimized repro bundles (only their
// count, which gates further minimization) and telemetry sink state —
// both are off the deterministic path.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/instr"
	"pmfuzz/internal/invariant"
)

// checkpointVersion guards the state format. Version 4 adds the
// invariant oracle's state and drops the Config fields that became
// engine constants; version 3 keyed images by the paged content hash
// (pmem.ContentHash), where version 2's flat digests no longer match.
const checkpointVersion = 4

// checkDraws bounds each RNG draw count of a checkpoint taken at
// clockNS: one draw per 100 simulated ns plus 2^20 of slack, and never
// more than 2^32. Restore replays draws one at a time (about 3.5 ns
// each), so a short session restores fast and no restore spends more
// than about 15 s there. No real session comes near either bound: an
// execution charges at least 80 µs of simulated time, so the first
// allows over 800 draws per execution, where sessions make about 30
// (27–29 mutator and 2–2.5 scheduler draws on btree and redis at seed
// 42, about 182 per simulated ms); at that rate 2^32 draws take some
// 6.5 simulated hours, over a day of wall time on the one worker a
// checkpointed session runs. Save checks too, so no session writes a
// checkpoint that Restore rejects.
func checkDraws(clockNS int64, queue, mut uint64) error {
	if limit := min(uint64(clockNS)/100+1<<20, 1<<32); queue > limit || mut > limit {
		return fmt.Errorf("core: checkpoint RNG draws %d/%d exceed %d at clock %dns", queue, mut, limit, clockNS)
	}
	return nil
}

type ckptBlob struct {
	ID   string `json:"id"`
	Blob []byte `json:"blob"`
}

type ckptPromoter struct {
	PendingIDs []int    `json:"pending_ids"`
	SeenIDs    []string `json:"seen_ids"`
	SeenClass  []uint64 `json:"seen_class"`
	Promoted   int      `json:"promoted"`
}

// ckptInvariant is the invariant oracle's state: its counters, and the
// frozen set as pminv text or — while mining is unfinished — the queue
// IDs of the entries fed to the miner, which restore feeds it again.
type ckptInvariant struct {
	Set        string `json:"set,omitempty"`
	Fed        []int  `json:"fed,omitempty"`
	Obs        int    `json:"obs"`
	Mined      int    `json:"mined"`
	Checks     int    `json:"checks"`
	Violations int    `json:"violations"`
	Dropped    int    `json:"dropped"`
}

type checkpointState struct {
	Version         int            `json:"version"`
	Config          Config         `json:"config"`
	ClockNS         int64          `json:"clock_ns"`
	Execs           int            `json:"execs"`
	OracleChecks    int            `json:"oracle_checks"`
	ReproCount      int            `json:"repro_count"`
	Stage2Campaigns int            `json:"stage2_campaigns"`
	Stage2Execs     int            `json:"stage2_execs"`
	WarmNext        int            `json:"warm_next"`
	WarmEnd         int            `json:"warm_end"`
	Series          []Sample       `json:"series"`
	Faults          []Fault        `json:"faults"`
	FaultMsgs       []string       `json:"fault_msgs"`
	PMPathSigs      []uint64       `json:"pm_path_sigs"`
	BranchVirgin    []byte         `json:"branch_virgin"`
	PMVirgin        []byte         `json:"pm_virgin"`
	RecVirgin       []byte         `json:"rec_virgin,omitempty"`
	Entries         []*fuzz.Entry  `json:"entries"`
	QueueCursor     int            `json:"queue_cursor"`
	QueueDraws      uint64         `json:"queue_draws"`
	MutDraws        uint64         `json:"mut_draws"`
	Blobs           []ckptBlob     `json:"blobs"`
	CacheOrder      []string       `json:"cache_order"`
	StoreStats      imgstore.Stats `json:"store_stats"`
	Promoter        *ckptPromoter  `json:"promoter,omitempty"`
	Invariant       *ckptInvariant `json:"invariant,omitempty"`
}

// EnableCheckpoint puts the session in checkpoint mode: leasing stops at
// the first round boundary where the merged clock has reached atNS (no
// forced final sample, no end event, no stage 2) so SaveCheckpoint
// captures a state the resumed run continues seamlessly. The session
// keeps its full BudgetNS — budget checks inside a lease (harvest
// sweeps, probabilistic failure runs) still see the real horizon, so the
// checkpointed prefix is byte-identical to the same span of an
// uninterrupted session. Only Workers=1 sessions checkpoint — the other
// workers' private state is not serialized.
func (f *Fuzzer) EnableCheckpoint(atNS int64) error {
	if f.cfg.Workers != 1 {
		return errors.New("core: checkpoint requires a single-worker session")
	}
	if atNS <= 0 || atNS > f.cfg.BudgetNS {
		return fmt.Errorf("core: checkpoint instant %dns outside the session budget %dns", atNS, f.cfg.BudgetNS)
	}
	f.ckptNS = atNS
	return nil
}

// SaveCheckpoint serializes the session after Run returned in
// checkpoint mode.
func (f *Fuzzer) SaveCheckpoint() ([]byte, error) {
	if f.cfg.Workers != 1 {
		return nil, errors.New("core: checkpoint requires a single-worker session")
	}
	if f.lead == nil {
		return nil, errors.New("core: checkpoint without a Run in checkpoint mode")
	}
	st := checkpointState{
		Version:         checkpointVersion,
		Config:          f.cfg,
		ClockNS:         f.clock.Now(),
		Execs:           f.execs,
		OracleChecks:    f.oracleChecks,
		ReproCount:      f.reproPrior + len(f.repros),
		Stage2Campaigns: f.stage2Campaigns,
		Stage2Execs:     f.stage2Execs,
		WarmNext:        f.warmNext,
		WarmEnd:         f.warmEnd,
		Series:          f.series,
		Faults:          f.faults,
		BranchVirgin:    f.branchVirgin.Bytes(),
		PMVirgin:        f.pmVirgin.Bytes(),
		Entries:         f.queue.Entries(),
		QueueCursor:     f.queue.Cursor(),
		QueueDraws:      f.queue.RNGDraws(),
		MutDraws:        f.lead.mut.RNGDraws(),
		StoreStats:      f.store.Stats(),
	}
	if err := checkDraws(st.ClockNS, st.QueueDraws, st.MutDraws); err != nil {
		return nil, err
	}
	if f.recVirgin != nil {
		st.RecVirgin = f.recVirgin.Bytes()
	}
	if f.invCk != nil {
		ci := &ckptInvariant{
			Obs: f.invObs, Mined: f.invStats.mined, Checks: f.invStats.checks,
			Violations: f.invStats.violations, Dropped: f.invStats.dropped,
		}
		if f.invSet != nil {
			ci.Set = string(f.invSet.Marshal())
		} else {
			ci.Fed = f.invFed
		}
		st.Invariant = ci
	}
	for msg := range f.faultMsgs {
		st.FaultMsgs = append(st.FaultMsgs, msg)
	}
	sort.Strings(st.FaultMsgs)
	for sig := range f.pmPathSigs {
		st.PMPathSigs = append(st.PMPathSigs, sig)
	}
	sort.Slice(st.PMPathSigs, func(i, j int) bool { return st.PMPathSigs[i] < st.PMPathSigs[j] })
	for _, id := range f.store.IDs() {
		blob, _, _, ok := f.store.ExportBlob(id)
		if !ok {
			return nil, fmt.Errorf("core: checkpoint: image %s vanished", id)
		}
		st.Blobs = append(st.Blobs, ckptBlob{ID: id.Hex(), Blob: blob})
	}
	for _, id := range f.lead.cache.LRU() {
		st.CacheOrder = append(st.CacheOrder, id.Hex())
	}
	if f.promoter != nil {
		p := &ckptPromoter{Promoted: f.promoter.promoted}
		for _, e := range f.promoter.pending {
			p.PendingIDs = append(p.PendingIDs, e.ID)
		}
		for id := range f.promoter.seen {
			p.SeenIDs = append(p.SeenIDs, id.Hex())
		}
		sort.Strings(p.SeenIDs)
		if f.promoter.seenClass != nil {
			p.SeenClass = []uint64{}
			for k := range f.promoter.seenClass {
				p.SeenClass = append(p.SeenClass, k)
			}
			sort.Slice(p.SeenClass, func(i, j int) bool { return p.SeenClass[i] < p.SeenClass[j] })
		}
		st.Promoter = p
	}
	return json.Marshal(&st)
}

// PeekCheckpointConfig extracts the Config a checkpoint was taken
// under, so the CLI can rebuild the session before restoring into it.
func PeekCheckpointConfig(data []byte) (Config, error) {
	var st struct {
		Version int    `json:"version"`
		Config  Config `json:"config"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return Config{}, fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if st.Version != checkpointVersion {
		return Config{}, fmt.Errorf("core: checkpoint version %d (want %d)", st.Version, checkpointVersion)
	}
	return st.Config, nil
}

// RestoreCheckpoint loads checkpointed state into a freshly built
// session (same workload, seed, and features; the budget may be larger
// so the resumed run continues past the checkpoint). Must be called
// before Run.
func (f *Fuzzer) RestoreCheckpoint(data []byte) error {
	if f.cfg.Workers != 1 {
		return errors.New("core: resume requires a single-worker session")
	}
	var st checkpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if st.Version != checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d (want %d)", st.Version, checkpointVersion)
	}
	if st.Config.Workload != f.cfg.Workload || st.Config.Seed != f.cfg.Seed {
		return fmt.Errorf("core: checkpoint is for workload %q seed %d, session is %q seed %d",
			st.Config.Workload, st.Config.Seed, f.cfg.Workload, f.cfg.Seed)
	}
	if st.Config.Features != f.cfg.Features {
		return errors.New("core: checkpoint feature set differs from session")
	}
	if st.ClockNS < 0 || f.cfg.BudgetNS < st.ClockNS {
		return fmt.Errorf("core: checkpoint clock %dns outside the resume budget %dns", st.ClockNS, f.cfg.BudgetNS)
	}
	// The scheduler indexes entries by cursor modulo the queue length, so
	// a negative cursor (or one about to overflow) would panic the run.
	if st.QueueCursor < 0 || st.QueueCursor > math.MaxInt/2 {
		return fmt.Errorf("core: checkpoint queue cursor %d out of range", st.QueueCursor)
	}
	if err := checkDraws(st.ClockNS, st.QueueDraws, st.MutDraws); err != nil {
		return err
	}

	// Image store: re-admit every blob in its native encoding. Deltas
	// whose base has not arrived yet retry on the next pass.
	pending := st.Blobs
	for len(pending) > 0 {
		var next []ckptBlob
		for _, b := range pending {
			id, err := imgstore.ParseID(b.ID)
			if err != nil {
				return err
			}
			if _, err := f.store.ImportBlob(id, b.Blob); err != nil {
				if errors.Is(err, imgstore.ErrMissingDeltaBase) {
					next = append(next, b)
					continue
				}
				return fmt.Errorf("core: restore image %s: %w", b.ID, err)
			}
		}
		if len(next) == len(pending) {
			return errors.New("core: checkpoint has unresolvable delta bases")
		}
		pending = next
	}
	var lru []imgstore.ID
	for _, h := range st.CacheOrder {
		id, err := imgstore.ParseID(h)
		if err != nil {
			return err
		}
		lru = append(lru, id)
	}
	lead := newWorkerState(f, 0)
	if err := lead.cache.Warm(lru); err != nil {
		return fmt.Errorf("core: restore cache: %w", err)
	}
	lead.mut.RestoreRNG(st.MutDraws)

	// Queue: rebuild in ID order over a fresh scheduler, then land the
	// cursor and RNG on their recorded states.
	q := fuzz.NewQueue(f.cfg.Seed + 1)
	if f.cfg.twoStage() {
		q.SetStage2Routing(true)
	}
	for i, e := range st.Entries {
		if e == nil {
			return fmt.Errorf("core: checkpoint entry %d is null", i)
		}
		if e.ID != i {
			return fmt.Errorf("core: checkpoint entry %d has ID %d", i, e.ID)
		}
		q.Add(e)
	}
	if st.WarmNext < 0 || st.WarmNext > st.WarmEnd || st.WarmEnd > q.Len() {
		return fmt.Errorf("core: checkpoint warm-up position %d of %d outside the queue", st.WarmNext, st.WarmEnd)
	}
	q.SetCursor(st.QueueCursor)
	q.RestoreRNG(st.QueueDraws)
	f.queue = q

	f.branchVirgin.SetBytes(st.BranchVirgin)
	f.pmVirgin.SetBytes(st.PMVirgin)
	if st.RecVirgin != nil {
		if f.recVirgin == nil {
			f.recVirgin = instr.NewVirgin()
		}
		f.recVirgin.SetBytes(st.RecVirgin)
	}
	f.pmPathSigs = make(map[uint64]struct{}, len(st.PMPathSigs))
	for _, sig := range st.PMPathSigs {
		f.pmPathSigs[sig] = struct{}{}
	}
	f.faultMsgs = make(map[string]bool, len(st.FaultMsgs))
	for _, msg := range st.FaultMsgs {
		f.faultMsgs[msg] = true
	}
	f.series = st.Series
	f.faults = st.Faults
	f.execs = st.Execs
	f.oracleChecks = st.OracleChecks
	f.reproPrior = st.ReproCount
	f.stage2Campaigns = st.Stage2Campaigns
	f.stage2Execs = st.Stage2Execs
	f.clock.Restore(st.ClockNS)

	if f.promoter != nil && st.Promoter != nil {
		f.promoter.promoted = st.Promoter.Promoted
		f.promoter.pending = nil
		for _, id := range st.Promoter.PendingIDs {
			e := f.queue.Get(id)
			if e == nil {
				return fmt.Errorf("core: checkpoint promoter references entry %d", id)
			}
			f.promoter.pending = append(f.promoter.pending, e)
		}
		f.promoter.seen = make(map[imgstore.ID]bool, len(st.Promoter.SeenIDs))
		for _, h := range st.Promoter.SeenIDs {
			id, err := imgstore.ParseID(h)
			if err != nil {
				return err
			}
			f.promoter.seen[id] = true
		}
		if f.promoter.seenClass != nil {
			f.promoter.seenClass = make(map[uint64]bool, len(st.Promoter.SeenClass))
			for _, k := range st.Promoter.SeenClass {
				f.promoter.seenClass[k] = true
			}
		}
	}

	if f.invCk != nil && st.Invariant != nil {
		if err := f.restoreInvariant(st.Invariant); err != nil {
			return err
		}
	}
	// Last: re-observing mined entries decodes their images.
	f.store.SetStats(st.StoreStats)

	f.warmNext, f.warmEnd = st.WarmNext, st.WarmEnd
	f.lead = lead
	f.resumed = true
	return nil
}

// restoreInvariant reinstates the invariant oracle's counters and its
// frozen set or, while mining was unfinished, the miner's evidence: it
// feeds the miner the recorded entries again, each with its input and
// stored image, through a throwaway cache so neither the clock nor any
// cache order moves.
func (f *Fuzzer) restoreInvariant(ci *ckptInvariant) error {
	f.invObs = ci.Obs
	f.invStats = invStats{mined: ci.Mined, checks: ci.Checks, violations: ci.Violations, dropped: ci.Dropped}
	if ci.Set != "" {
		set, err := invariant.ParseSet([]byte(ci.Set))
		if err != nil {
			return fmt.Errorf("core: checkpoint invariant set: %w", err)
		}
		if set.Workload != f.cfg.Workload {
			return fmt.Errorf("core: checkpoint invariant set is for %q", set.Workload)
		}
		f.invSet = set
		return nil
	}
	images := f.store.NewCache(0)
	clean := 0
	for _, id := range ci.Fed {
		e := f.queue.Get(id)
		if e == nil {
			return fmt.Errorf("core: checkpoint invariant miner references entry %d", id)
		}
		tc := f.testCase(e.Input, nil)
		if e.HasImage {
			img, err := images.Get(e.ImageID, nil)
			if err != nil {
				return fmt.Errorf("core: checkpoint invariant miner entry %d: %w", id, err)
			}
			tc.Image = img
		}
		if f.mineObserve(id, tc) {
			clean++
		}
	}
	if clean != ci.Obs || clean >= invariantMineObs {
		return fmt.Errorf("core: checkpoint invariant miner replays %d clean observations, recorded %d", clean, ci.Obs)
	}
	return nil
}
