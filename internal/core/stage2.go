package core

// Stage 2 of the two-stage pipeline: sub-campaigns that fuzz command
// inputs from promoted crash images. Stage 1 (the existing loop) fuzzes
// inputs and harvests crash images; instead of scheduling those images
// inline, a two-stage session routes them to the promotion policy
// (promote.go) and, once stage 1's budget is exhausted, runs one
// sub-campaign per promoted image: recover the crash image (pool open +
// transaction recovery + workload recovery hooks, no commands), then
// fuzz command inputs from the *recovered* image as the start state with
// Stage2Workers cores and a Stage2BudgetNS simulated budget. Campaigns
// run sequentially on the session's coordinating goroutine and advance
// the session clock, so a two-stage session remains a pure function
// of (Seed, Workers, stage budgets). Crash images found inside a
// campaign become the next promotion round's candidates — the original
// tool's stage=2,iter=N iteration directories.

import (
	"bytes"
	"fmt"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/obs"
)

// defaultStage2MaxCampaigns bounds sub-campaigns when the config
// doesn't.
const defaultStage2MaxCampaigns = 4

// stage2SeedPrime spaces campaign seeds so each sub-campaign explores a
// decorrelated mutation stream while staying a pure function of
// (Config.Seed, campaign ordinal).
const stage2SeedPrime = 611953

// runStage2 drains the promotion queue into sub-campaigns and patches
// the session result with the extended totals. res is stage 1's result;
// its Queue/Store pointers are shared with f and keep growing.
func (f *Fuzzer) runStage2(res *Result) {
	maxC := f.cfg.Stage2MaxCampaigns
	if maxC <= 0 {
		maxC = defaultStage2MaxCampaigns
	}
	perBudget := f.cfg.Stage2BudgetNS
	if perBudget <= 0 {
		perBudget = f.cfg.BudgetNS / 4
	}
	for iter := 1; f.stage2Campaigns < maxC; iter++ {
		roots := f.promoter.promote(f.queue, maxC-f.stage2Campaigns)
		if len(roots) == 0 {
			break
		}
		for _, root := range roots {
			f.runCampaign(root, iter, f.stage2Campaigns, perBudget)
		}
	}
	f.sample(true)
	res.Execs = f.execs
	res.SimNS = f.clock.Now()
	res.PMPaths = len(f.pmPathSigs)
	res.Series = f.series
	res.Faults = f.faults
	res.Repros = f.repros
	res.Stage2Campaigns = f.stage2Campaigns
	res.Stage2Execs = f.stage2Execs
	res.InvariantSet = f.invSet
	res.InvariantChecks = f.invStats.checks
	res.InvariantViolations = f.invStats.violations
	res.InvariantsDropped = f.invStats.dropped
}

// runCampaign executes one stage-2 sub-campaign from a promoted crash
// image on the session clock and merges its outcome into the session.
func (f *Fuzzer) runCampaign(root *fuzz.Entry, iter, campaign int, perBudget int64) {
	f.stage2Campaigns++
	execsBefore := f.execs

	f.obsStageEnter(obs.StageEnterEvent{
		SimNS: f.clock.Now(), Stage: 2, Iter: iter, Campaign: campaign,
		Root: root.ID, Image: root.ImageID.String(),
		Score:   f.promoter.score(f.queue, root),
		Workers: f.cfg.Stage2Workers, BudgetNS: perBudget,
	})
	exit := func() {
		f.stage2Execs += f.execs - execsBefore
		f.obsStageExit(obs.StageExitEvent{
			SimNS: f.clock.Now(), Stage: 2, Iter: iter, Campaign: campaign,
			Execs: f.execs - execsBefore, PMPaths: len(f.pmPathSigs),
			RecoverySites: f.recoverySites(),
		})
		f.sample(true)
	}

	// Pin the promoted crash image resident for the whole campaign (the
	// stage-2 analog of the fork server keeping its start state mapped);
	// the one decode charges the campaign clock like any image load.
	img, err := f.store.Pin(root.ImageID, f.clock)
	if err != nil {
		exit()
		return
	}
	defer f.store.Unpin(root.ImageID)

	// Recovery run: open the crash image and drive only the program's
	// recovery path, harvesting the recovered durable state — the
	// sub-campaign's true start image.
	rec := executor.Recover(executor.TestCase{
		Workload: f.cfg.Workload, Image: img, Bugs: f.bugs, Seed: f.cfg.Seed,
	}, executor.Options{Clock: f.clock, Arena: f.arena, Shard: f.shard})
	f.execs++
	if rec.SetupPM != nil && f.recVirgin != nil {
		f.recVirgin.Merge(rec.SetupPM)
	}
	if rec.Faulted() || rec.Image == nil {
		// Recovery itself faulted — exactly the bug class stage 2 hunts.
		msg := ""
		if rec.Panicked {
			msg = fmt.Sprintf("panic: %v", rec.PanicVal)
		} else if rec.Err != nil {
			msg = rec.Err.Error()
		}
		f.addFault(root, root.Input, msg, f.clock.Now())
		f.arena.Recycle(rec)
		f.arena.RecycleImage(rec.Image)
		exit()
		return
	}
	recID, _, err := f.store.PutDelta(rec.Image, root.ImageID, img)
	f.arena.Recycle(rec)
	f.arena.RecycleImage(rec.Image)
	if err != nil {
		exit()
		return
	}
	if _, err := f.store.Pin(recID, f.clock); err != nil {
		exit()
		return
	}
	defer f.store.Unpin(recID)

	child := f.newCampaign(root, recID, iter, campaign, perBudget)
	if child == nil {
		exit()
		return
	}
	cres := child.Run()
	f.mergeCampaign(root, child, cres, iter)
	exit()
}

// newCampaign builds the sub-campaign fuzzer: a fresh engine with
// per-stage scoped virgin maps and queue, sharing the session's image
// store, clock, telemetry, recovery virgin, fault buckets, checkers,
// check counters, and frozen invariant set. Its corpus is the workload
// seed inputs plus the promoted entry's own input, all starting from
// the recovered image.
func (f *Fuzzer) newCampaign(root *fuzz.Entry, recID imgstore.ID, iter, campaign int, perBudget int64) *Fuzzer {
	cfg := f.cfg
	cfg.Workers = f.cfg.Stage2Workers
	cfg.Stage2Workers = 0 // campaigns never recurse
	cfg.Seed = f.cfg.Seed + stage2SeedPrime*int64(campaign+1)
	cfg.BudgetNS = f.clock.Now() + perBudget
	child, err := New(cfg, f.bugs)
	if err != nil {
		return nil
	}
	child.store = f.store
	child.clock = f.clock
	child.stage = 2
	child.iter = iter
	child.campaign = campaign
	child.recVirgin = f.recVirgin
	// One session-wide fault-bucket map: a fault the session has already
	// recorded is not re-reported by a campaign, and campaign faults
	// merge back without re-deduplication.
	child.faultMsgs = f.faultMsgs
	child.tele = f.tele
	child.shard = f.shard
	// Campaigns judge on the session's checkers (timed on its shard) and
	// against its frozen invariant set; self-validation drops any rule a
	// recovered-image case refutes, as for fleet-adopted sets.
	child.oracleCk, child.invCk = f.oracleCk, f.invCk
	child.AdoptInvariantSet(f.invSet)
	// The check caps are per session. Campaigns run one at a time, so
	// each starts from the session's counters and mergeCampaign carries
	// them back.
	child.oracleChecks, child.invStats = f.oracleChecks, f.invStats
	seeded := false
	for _, e := range child.queue.Entries() {
		e.ImageID = recID
		e.HasImage = true
		seeded = seeded || bytes.Equal(e.Input, root.Input)
	}
	if !seeded {
		child.queue.Add(&fuzz.Entry{
			Input:    append([]byte(nil), root.Input...),
			ParentID: -1,
			Favored:  fuzz.FavoredHigh,
			ImageID:  recID,
			HasImage: true,
		})
	}
	return child
}

// mergeCampaign folds a finished sub-campaign into the session: execs,
// coverage (virgin merges and PM-path signature union), faults,
// both oracles' check counts, repro bundles, and the campaign corpus —
// re-parented under the promoted entry and labeled Stage=2/Iter for the
// staged corpus layout. Crash images the campaign found become the next
// promotion round's candidates.
func (f *Fuzzer) mergeCampaign(root *fuzz.Entry, child *Fuzzer, cres *Result, iter int) {
	f.execs += cres.Execs
	f.branchVirgin.MergeFrom(child.branchVirgin)
	f.pmVirgin.MergeFrom(child.pmVirgin)
	for sig := range child.pmPathSigs {
		f.pmPathSigs[sig] = struct{}{}
	}
	f.faults = append(f.faults, cres.Faults...)
	f.oracleChecks = child.oracleChecks
	f.invStats.checks = child.invStats.checks
	f.invStats.violations = child.invStats.violations
	f.invStats.dropped = child.invStats.dropped
	for _, r := range cres.Repros {
		if f.reproPrior+len(f.repros) < maxRepros {
			f.repros = append(f.repros, r)
		}
	}
	idMap := make(map[int]int, child.queue.Len())
	for _, ce := range child.queue.Entries() {
		ne := &fuzz.Entry{
			Input:         ce.Input,
			ImageID:       ce.ImageID,
			HasImage:      ce.HasImage,
			IsCrashImage:  ce.IsCrashImage,
			ParentID:      root.ID,
			Depth:         root.Depth + 1 + ce.Depth,
			Favored:       ce.Favored,
			NewBranch:     ce.NewBranch,
			NewPM:         ce.NewPM,
			Selections:    ce.Selections,
			FoundSimNS:    ce.FoundSimNS,
			Stage:         2,
			Iter:          iter,
			OracleFlagged: ce.OracleFlagged,
			ClassKey:      ce.ClassKey,
		}
		if p, ok := idMap[ce.ParentID]; ok {
			ne.ParentID = p
		}
		f.queue.Add(ne)
		idMap[ce.ID] = ne.ID
		if ne.IsCrashImage && ne.HasImage {
			f.promoter.consider(ne)
		}
	}
}
