package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"pmfuzz/internal/core"
	"pmfuzz/internal/executor"
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/invariant"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/oracle"
	"pmfuzz/internal/workloads/bugs"
)

// judgeTargets are the programs the crash-judge corpus is fuzzed from:
// one tree workload and the one string-keyed workload.
var judgeTargets = []string{"btree", "redis"}

// The checks' options: every crash point of the sweep, pre-fence windows
// included, over at most 12 commands per case.
var (
	oracleOpts    = oracle.Options{MaxCommands: 12, PreFence: true}
	invariantOpts = invariant.Options{MaxCommands: 12, PreFence: true}
)

// mineCases is how many cases of each target the invariant set is
// mined from.
const mineCases = 3

// caseRef is a queue entry: its input and, when it has one, the stored
// image it starts from.
type caseRef struct {
	workload string
	seed     int64
	input    []byte
	image    imgstore.ID
	hasImage bool
	store    *imgstore.Store
}

// testCase decodes the entry's image (uncached) into a runnable case.
func (c caseRef) testCase() (executor.TestCase, error) {
	tc := executor.TestCase{Workload: c.workload, Input: c.input, Seed: c.seed}
	if c.hasImage {
		img, err := c.store.NewCache(0).Get(c.image, nil)
		if err != nil {
			return tc, fmt.Errorf("loading image %s: %w", c.image, err)
		}
		tc.Image = img
	}
	return tc, nil
}

// corpus is crash-judge's input: NewPM queue entries of short fuzzing
// sessions, their images, and the invariant set mined per target. The
// cases alternate between targets.
type corpus struct {
	cases  []caseRef
	sets   map[string]*invariant.Set
	digest [32]byte
	runs   []stageRun // telemetry of the sessions, when traced
}

// candidate is a NewPM queue entry of a corpus session, with the
// persist barriers one run of it reaches within the checks' command
// limit. A check's time follows its barrier count closely (correlation
// 0.98 or more on btree and redis), as every barrier is a crash point to
// judge.
type candidate struct {
	ref      caseRef
	barriers int
}

// ladderTop is the highest barrier count crash-judge's cases are drawn
// to. The sessions of both targets reach it at every seed tried, while
// their longest cases vary from about 55 to 105 barriers by seed.
const ladderTop = 50

func abs(x int) int { return max(x, -x) }

// buildCorpus is crash-judge's set-up. Per target it runs
// sc.corpusSeeds sessions at derived seeds, takes four candidates per
// case to draw from evenly spaced NewPM entries of each session, and
// runs each candidate once. Case i of n is then the unused candidate
// whose barrier count is nearest to rung i of an even ladder from 1 to
// ladderTop. The ladder gives every seed's corpus the same mix of cheap
// and costly cases, and so the same work per pass and check latencies,
// while the cases themselves come from the seed. It then mines the
// target's invariants from three cases spread over the ladder. With a
// tracer it also attaches telemetry to the sessions and records spans.
func buildCorpus(o options, tr *tracer, parent int) (*corpus, error) {
	sc := o.scale
	c := &corpus{sets: map[string]*invariant.Set{}}
	store := imgstore.New(0)
	h := sha256.New()
	var byTarget [][]caseRef
	for _, target := range judgeTargets {
		var pool []candidate
		for j := 0; j < sc.corpusSeeds; j++ {
			seed := subSeed(o.seed, j)
			res, err := corpusSession(c, target, seed, sc.corpusMS, tr, parent)
			if err != nil {
				return nil, err
			}
			var found []*fuzz.Entry
			for _, e := range res.Queue.Entries() {
				if e.NewPM {
					found = append(found, e)
				}
			}
			k := min(len(found), 4*(sc.casesPerTarget*(j+1)/sc.corpusSeeds-sc.casesPerTarget*j/sc.corpusSeeds))
			for i := 0; i < k; i++ {
				e := found[i*len(found)/k]
				ref := caseRef{workload: target, seed: seed, input: e.Input, image: e.ImageID, hasImage: e.HasImage, store: res.Store}
				tc, err := ref.testCase()
				if err != nil {
					return nil, err
				}
				run := executor.Run(tc, executor.Options{MaxCommands: oracleOpts.MaxCommands})
				pool = append(pool, candidate{ref, run.Barriers})
			}
		}
		if len(pool) < sc.casesPerTarget {
			return nil, fmt.Errorf("corpus: %s sessions gave %d NewPM candidates, want %d", target, len(pool), sc.casesPerTarget)
		}
		var refs []caseRef
		used := make([]bool, len(pool))
		for i := 0; i < sc.casesPerTarget; i++ {
			want := 1 + (ladderTop-1)*(2*i+1)/(2*sc.casesPerTarget)
			pick := -1
			for k, c := range pool {
				if !used[k] && (pick < 0 || abs(c.barriers-want) < abs(pool[pick].barriers-want)) {
					pick = k
				}
			}
			used[pick] = true
			ref := pool[pick].ref
			if ref.hasImage {
				blob, err := ref.store.ExportBlobFull(ref.image)
				if err != nil {
					return nil, fmt.Errorf("exporting corpus image: %w", err)
				}
				if _, err := store.ImportBlob(ref.image, blob); err != nil {
					return nil, fmt.Errorf("importing corpus image: %w", err)
				}
			}
			ref.store = store
			refs = append(refs, ref)
			fmt.Fprintf(h, "%s\x00%d\x00%q\x00%v\x00%x\n", target, ref.seed, ref.input, ref.hasImage, ref.image)
		}
		var mine []executor.TestCase
		n := min(mineCases, len(refs))
		for k := 0; k < n; k++ {
			tc, err := refs[(2*k+1)*len(refs)/(2*n)].testCase()
			if err != nil {
				return nil, err
			}
			mine = append(mine, tc)
		}
		set, err := mineSet(tr, parent, target, mine)
		if err != nil {
			return nil, err
		}
		c.sets[target] = set
		h.Write(set.Marshal())
		byTarget = append(byTarget, refs)
	}
	for i := 0; i < sc.casesPerTarget; i++ {
		for _, refs := range byTarget {
			c.cases = append(c.cases, refs[i])
		}
	}
	copy(c.digest[:], h.Sum(nil))
	return c, nil
}

// corpusSession runs one corpus fuzzing session, recording its telemetry
// in c when traced.
func corpusSession(c *corpus, target string, seed, budgetMS int64, tr *tracer, parent int) (*core.Result, error) {
	cfg, err := core.DefaultConfig(target, core.PMFuzzAll, budgetMS*1_000_000, seed)
	if err != nil {
		return nil, err
	}
	cfg.Workers = 1
	f, err := newFuzzer(cfg, tr, parent)
	if err != nil {
		return nil, err
	}
	var sess *obs.Session
	if tr != nil {
		if sess, err = obs.NewSession(obs.Config{Workload: target, FuzzConfig: string(core.PMFuzzAll), Workers: 1, Seed: seed, BudgetNS: cfg.BudgetNS}); err != nil {
			return nil, fmt.Errorf("telemetry session: %w", err)
		}
		f.SetTelemetry(sess)
	}
	sp := tr.begin("core.Fuzzer.Run", parent, -1)
	t0 := time.Now()
	res := f.Run()
	wall := time.Since(t0)
	tr.end(sp)
	if sess != nil {
		if err := sess.Close(); err != nil {
			return nil, fmt.Errorf("telemetry session: %w", err)
		}
		c.runs = append(c.runs, stageRun{snap: sess.M.Snapshot(), wall: wall, workers: 1})
	}
	return res, nil
}

// mineSet mines one invariant set from clean cases of one program.
func mineSet(tr *tracer, parent int, target string, cases []executor.TestCase) (*invariant.Set, error) {
	sp := tr.begin("invariant.mine", parent, -1)
	defer tr.end(sp)
	ck := invariant.NewChecker()
	m := invariant.NewMiner(target)
	for _, tc := range cases {
		if err := ck.Observe(m, tc, invariantOpts); err != nil {
			return nil, fmt.Errorf("mining %s: %w", target, err)
		}
	}
	return m.Mine(), nil
}

// judgeTotals sums the two oracles' reports over judged cases.
type judgeTotals struct {
	oracle, invariant checkTotals
	failed            int64 // checks skipped or reporting a violation
	firstFailure      string
}

type checkTotals struct {
	checked, recoveries, memoHits, classes int
}

// judge checks each case with both oracles, closed loop: a round is one
// case judged by the differential oracle and then by the invariant
// oracle, and the next round starts when it ends. Image decoding happens
// between rounds, off the clock: this workload bypasses the image store.
func judge(tr *tracer, parent int, cases []caseRef, sets map[string]*invariant.Set, oc *oracle.Checker, ic *invariant.Checker) (rep, judgeTotals, error) {
	var r rep
	var t judgeTotals
	for i, c := range cases {
		tc, err := c.testCase()
		if err != nil {
			return r, t, err
		}
		set := sets[c.workload]
		a0 := heapAllocs()
		sp := tr.begin("bench.case", parent, i)
		t0 := time.Now()
		so := tr.begin("oracle.Checker.Check", sp, i)
		orep := oc.Check(tc, oracleOpts)
		tr.end(so)
		si := tr.begin("invariant.Checker.Check", sp, i)
		irep := ic.Check(tc, set, invariantOpts)
		tr.end(si)
		d := time.Since(t0)
		tr.end(sp)
		r.allocs += heapAllocs() - a0

		r.wall += d
		r.rounds = append(r.rounds, float64(d.Nanoseconds())/1e6)
		r.ops += 2
		r.coverage += int64(min(orep.Checked, irep.Checked))
		t.oracle.add(checkTotals{orep.Checked, orep.Recoveries, orep.MemoHits, orep.Classes})
		t.invariant.add(checkTotals{irep.Checked, irep.Recoveries, irep.MemoHits, irep.Classes})
		for _, f := range []struct {
			name, skipped string
			violations    int
		}{{"oracle", orep.Skipped, len(orep.Violations)}, {"invariant", irep.Skipped, len(irep.Violations)}} {
			if f.skipped == "" && f.violations == 0 {
				continue
			}
			t.failed++
			if t.firstFailure == "" {
				t.firstFailure = fmt.Sprintf("%s case %d: %s check skipped=%q violations=%d", c.workload, i, f.name, f.skipped, f.violations)
			}
		}
	}
	return r, t, nil
}

func (c *checkTotals) add(u checkTotals) {
	c.checked += u.checked
	c.recoveries += u.recoveries
	c.memoHits += u.memoHits
	c.classes += u.classes
}

// crashJudge is the crash-consistency judging workload.
type crashJudge struct{}

func (crashJudge) run(o options) (*outcome, error) {
	sc := o.scale
	out := &outcome{workload: "crash-judge", notes: map[string]string{}}

	var setup []float64
	var cp *corpus
	for i := 0; i < sc.judgeSetups; i++ {
		t0 := time.Now()
		c, err := buildCorpus(o, nil, 0)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if cp != nil && c.digest != cp.digest {
			return nil, gateErrorf("crash-judge: set-up %d built a different corpus than set-up 1", i+1)
		}
		cp = c
	}

	// The warm-up judges a quarter of the cases.
	oc, ic := oracle.NewChecker(), invariant.NewChecker()
	var warm []caseRef
	for i := 0; i < len(cp.cases); i += 4 {
		warm = append(warm, cp.cases[i])
	}
	if _, _, err := judge(nil, 0, warm, cp.sets, oc, ic); err != nil {
		return nil, err
	}

	// Each pass judges the whole corpus and must reproduce the first
	// pass's judgement. Each case counts at its fastest round.
	var first judgeTotals
	var best rep
	var fastest []float64 // each case's fastest round
	var rates []float64   // crash points per second of each pass
	pass, timed := 0, 0.0
	for ; o.another(pass, timed); pass++ {
		m := startRep()
		r, t, err := judge(nil, 0, cp.cases, cp.sets, oc, ic)
		if err != nil {
			return nil, err
		}
		r.cost = m.stop()
		if t.failed > 0 {
			return nil, gateErrorf("crash-judge: %d failed checks on the clean corpus (first: %s)", t.failed, t.firstFailure)
		}
		if pass == 0 {
			first, best = t, r
			fastest = append(fastest, r.rounds...)
		} else if t != first {
			return nil, gateErrorf("crash-judge: pass %d judged %+v, the first pass judged %+v", pass+1, t, first)
		} else {
			best.fold(r)
			for i, d := range r.rounds {
				fastest[i] = min(fastest[i], d)
			}
		}
		out.attempted += r.ops
		rates = append(rates, float64(r.coverage)/r.wall.Seconds())
		timed += r.wall.Seconds()
	}
	best.rounds, best.wall = fastest, 0
	for _, d := range fastest {
		best.wall += time.Duration(d * 1e6)
	}
	out.reps = pass
	out.values = endToEnd([]rep{best}, setup, out.notes)
	out.notes["coverage"] = fmt.Sprintf("crash points judged by both oracles over the %d-case corpus; deterministic per seed", len(cp.cases))
	out.notes["ops_per_s"] = fmt.Sprintf("checks (one case, one oracle) per host second, fastest of %d passes per case", pass)
	out.notes["coverage_per_s"] = "crash points judged by both oracles per host second"
	out.notes["allocs_per_op"] = "heap allocations per check"
	out.notes["setup_s"] = fmt.Sprintf("corpus sessions, candidate runs + mining, n=%d", len(setup))
	out.notes["fail_ratio"] = "skipped or violating checks / checks"

	if o.traceDir != "" {
		if err := crashJudgeTraced(o, first, median(rates), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// crashJudgeTraced repeats set-up with telemetry on the corpus sessions,
// judges the whole corpus once more under spans, and runs the replays
// over it. want is an untraced pass's totals, untraced the untraced
// passes' median crash points per second.
func crashJudgeTraced(o options, want judgeTotals, untraced float64, out *outcome) error {
	tr := newTracer()
	root := tr.begin("bench.setup", 0, -1)
	cp, err := buildCorpus(o, tr, root)
	if err != nil {
		return err
	}
	tr.end(root)
	root = tr.begin("bench.traced_rep", 0, -1)
	r, t, err := judge(tr, root, cp.cases, cp.sets, oracle.NewChecker(), invariant.NewChecker())
	tr.end(root)
	if err != nil {
		return err
	}
	if t != want {
		return gateErrorf("crash-judge: traced pass judged %+v, untraced %+v", t, want)
	}
	v := out.values
	for k, x := range stageMetrics(cp.runs) {
		v[k] = x
	}
	traced := float64(r.coverage) / r.wall.Seconds()
	v["obs.trace_overhead_pct"] = 100 * (untraced - traced) / untraced
	v["core.new_s"] = median(tr.durations("core.New")) / 1e9
	v["fuzz.queue_len"] = float64(len(cp.cases))
	judgeLayers(tr, t, cp.sets, v)

	refs := cp.cases
	if len(refs) > o.scale.replayEntries {
		refs = refs[:o.scale.replayEntries]
	}
	if err := replayLayers(tr, refs, o.scale, v); err != nil {
		return fmt.Errorf("crash-judge: %w", err)
	}
	out.spans = tr
	return nil
}

// judgeReplay is the fuzzing workloads' oracle layer measurement: mine a
// set from the first cases, then judge every case under spans.
func judgeReplay(tr *tracer, refs []caseRef, v map[string]float64) error {
	if len(refs) == 0 {
		return fmt.Errorf("judge replay: empty queue")
	}
	root := tr.begin("bench.judge_replay", 0, -1)
	defer tr.end(root)
	sets := map[string]*invariant.Set{}
	var mine []executor.TestCase
	for _, c := range refs[:min(mineCases, len(refs))] {
		tc, err := c.testCase()
		if err != nil {
			return err
		}
		mine = append(mine, tc)
	}
	set, err := mineSet(tr, root, refs[0].workload, mine)
	if err != nil {
		return err
	}
	sets[refs[0].workload] = set
	_, t, err := judge(tr, root, refs, sets, oracle.NewChecker(), invariant.NewChecker())
	if err != nil {
		return err
	}
	if t.failed > 0 {
		return gateErrorf("judge replay: %d failed checks on clean queue entries (first: %s)", t.failed, t.firstFailure)
	}
	judgeLayers(tr, t, sets, v)
	return nil
}

// judgeLayers derives the oracle and invariant layer metrics from a
// judged pass and its spans.
func judgeLayers(tr *tracer, t judgeTotals, sets map[string]*invariant.Set, v map[string]float64) {
	o, i := tr.durations("oracle.Checker.Check"), tr.durations("invariant.Checker.Check")
	v["oracle.check_ms_p50"] = quantile(o, 0.5) / 1e6
	v["oracle.check_ms_p95"] = quantile(o, 0.95) / 1e6
	v["oracle.recoveries_per_point"] = ratio(t.oracle.recoveries, t.oracle.checked)
	v["oracle.memo_hits"] = float64(t.oracle.memoHits)
	v["oracle.classes_per_point"] = ratio(t.oracle.classes, t.oracle.checked)
	v["invariant.check_ms_p50"] = quantile(i, 0.5) / 1e6
	v["invariant.check_ms_p95"] = quantile(i, 0.95) / 1e6
	v["invariant.recoveries_per_point"] = ratio(t.invariant.recoveries, t.invariant.checked)
	rules := 0
	for _, s := range sets {
		rules += s.Len()
	}
	v["invariant.rules"] = float64(rules)
	mine := 0.0
	for _, d := range tr.durations("invariant.mine") {
		mine += d
	}
	v["invariant.mine_s"] = mine / 1e9
}

// canary proves the oracles still find a real bug: Bug 2 on btree (a
// pool created without retry), which both must flag. An oracle that got
// faster by finding nothing fails here.
func canary() error {
	tc := executor.TestCase{
		Workload: "btree",
		Input:    []byte("i 1 1\ni 2 2\n"),
		Bugs:     bugs.NewSet().EnableReal(bugs.Bug2BTreeCreateNotRetried),
		Seed:     1,
	}
	if rep := oracle.NewChecker().Check(tc, oracle.Options{MaxViolations: 1}); rep.Skipped != "" || len(rep.Violations) == 0 {
		return gateErrorf("canary: the differential oracle missed real bug 2 (skipped=%q)", rep.Skipped)
	}
	ic := invariant.NewChecker()
	set, err := ic.MineCase(tc, invariant.Options{})
	if err != nil {
		return gateErrorf("canary: mining failed: %v", err)
	}
	if rep := ic.Check(tc, set, invariant.Options{PreFence: true}); rep.Skipped != "" || len(rep.Violations) == 0 {
		return gateErrorf("canary: the invariant oracle missed real bug 2 (skipped=%q)", rep.Skipped)
	}
	return nil
}
