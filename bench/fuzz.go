package main

import (
	"fmt"
	"time"

	"pmfuzz/internal/core"
	"pmfuzz/internal/obs"
)

// fuzzWorkload is a closed-loop fuzzing session: the engine starts the
// next execution only when the previous one finishes. One rep is one
// whole session at a fixed simulated budget. The budgets are short so a
// run fits several passes over sessions at several seeds: PM paths vary
// by about 10% from seed to seed, and the mean over 4 seeds varies by
// about half of that.
type fuzzWorkload struct {
	name     string
	target   string // registered program
	config   core.ConfigName
	workers  int
	budgetMS int64 // simulated milliseconds per rep
}

// The three fuzzing workloads; BENCHMARK.json and README.md say why
// each exists.
var fuzzWorkloads = []fuzzWorkload{
	{name: "btree-w1", target: "btree", config: core.PMFuzzAll, workers: 1, budgetMS: 250},
	{name: "redis-w2", target: "redis", config: core.PMFuzzAll, workers: 2, budgetMS: 250},
	{name: "btree-afl", target: "btree", config: core.AFLPlusPlus, workers: 1, budgetMS: 500},
}

// fuzzSig is what every rep of one seed must reproduce exactly.
type fuzzSig struct {
	execs, pmPaths, queue, images int
}

func (w fuzzWorkload) cfg(seed, budgetMS int64) (core.Config, error) {
	cfg, err := core.DefaultConfig(w.target, w.config, budgetMS*1_000_000, seed)
	if err != nil {
		return cfg, fmt.Errorf("%s: %w", w.name, err)
	}
	cfg.Workers = w.workers
	return cfg, nil
}

// newFuzzer builds a session, under a span when traced.
func newFuzzer(cfg core.Config, tr *tracer, parent int) (*core.Fuzzer, error) {
	sp := tr.begin("core.New", parent, -1)
	f, err := core.New(cfg, nil)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	return f, nil
}

// fuzzRep builds and runs one timed session, with telemetry attached
// when sess is not nil. core.New is inside the timed window, so no
// per-session work can leave it by moving into the constructor. A sync
// hook, which the engine calls at every scheduling boundary (each parent
// selection at Workers=1, each coordinator round otherwise) and which
// leaves the trajectory untouched, stamps the end of each round.
func fuzzRep(cfg core.Config, sess *obs.Session, tr *tracer, parent int) (rep, *core.Result, error) {
	stamps := make([]time.Time, 1, 8192)
	m := startRep()
	t0 := time.Now()
	f, err := newFuzzer(cfg, tr, parent)
	if err != nil {
		m.stop()
		return rep{}, nil, err
	}
	if sess != nil {
		f.SetTelemetry(sess)
	}
	f.SetSyncHook(func() { stamps = append(stamps, time.Now()) })
	sp := tr.begin("core.Fuzzer.Run", parent, -1)
	stamps[0] = time.Now()
	res := f.Run()
	wall := time.Since(t0)
	tr.end(sp)
	cost := m.stop()
	r := rep{
		wall:     wall,
		ops:      int64(res.Execs),
		coverage: int64(res.PMPaths),
		allocs:   cost.allocs,
		cost:     cost,
	}
	for i := 1; i < len(stamps); i++ {
		r.rounds = append(r.rounds, float64(stamps[i].Sub(stamps[i-1]).Nanoseconds())/1e6)
	}
	return r, res, nil
}

func sigOf(res *core.Result) fuzzSig {
	return fuzzSig{execs: res.Execs, pmPaths: res.PMPaths, queue: res.Queue.Len(), images: res.Store.Len()}
}

// run times sessions at sc.subSeeds seeds derived from o.seed. A pass
// runs one session per seed; passes repeat while o.another allows. Every
// rerun of a seed must reproduce that seed's first session exactly, and
// the time metrics take each seed's fastest session. Spreading the
// sessions over seeds keeps one seed's trajectory from setting the run's
// numbers.
func (w fuzzWorkload) run(o options) (*outcome, error) {
	sc := o.scale
	budget := w.budgetMS
	if sc.fuzzBudgetMS > 0 {
		budget = sc.fuzzBudgetMS
	}
	cfgs := make([]core.Config, sc.subSeeds)
	for j := range cfgs {
		var err error
		if cfgs[j], err = w.cfg(subSeed(o.seed, j), budget); err != nil {
			return nil, err
		}
	}
	out := &outcome{workload: w.name, notes: map[string]string{}}

	// Set-up is a warm-up session at a quarter of the budget, timed whole.
	// (core.New alone takes about 50 µs, too little to time steadily.)
	var setup []float64
	for i := 0; i < sc.fuzzSetups; i++ {
		warm := cfgs[i%len(cfgs)]
		warm.BudgetNS /= 4
		t0 := time.Now()
		f, err := newFuzzer(warm, nil, 0)
		if err != nil {
			return nil, err
		}
		f.Run()
		setup = append(setup, time.Since(t0).Seconds())
	}

	var seed0 []float64 // execs per second of the first seed's sessions
	best := make([]rep, len(cfgs))
	sigs := make([]fuzzSig, len(cfgs))
	pass, timed := 0, 0.0
	for ; o.another(pass, timed); pass++ {
		for j, cfg := range cfgs {
			r, res, err := fuzzRep(cfg, nil, nil, 0)
			if err != nil {
				return nil, err
			}
			sig := sigOf(res)
			if pass == 0 {
				sigs[j], best[j] = sig, r
			} else if sig != sigs[j] {
				return nil, gateErrorf("%s: seed %d reproduced %+v, its first session gave %+v", w.name, cfg.Seed, sig, sigs[j])
			} else {
				best[j].fold(r)
			}
			out.attempted += r.ops
			out.failed += int64(len(res.Faults))
			timed += r.wall.Seconds()
			if j == 0 {
				seed0 = append(seed0, float64(r.ops)/r.wall.Seconds())
			}
		}
	}
	out.reps = pass * len(cfgs)
	out.values = endToEnd(best, setup, out.notes)
	out.notes["coverage"] = fmt.Sprintf("PM paths at %d sim-ms, mean over seeds (n=%d); simulated clock, deterministic per seed", budget, len(cfgs))
	out.notes["ops_per_s"] = fmt.Sprintf("target executions per host second, fastest of %d passes per seed", pass)
	out.notes["coverage_per_s"] = "PM paths per host second"
	out.notes["allocs_per_op"] = "heap allocations per execution"
	out.notes["setup_s"] = fmt.Sprintf("warm-up session, n=%d", len(setup))
	out.notes["fail_ratio"] = "unique faults / executions"

	if o.traceDir != "" {
		if err := w.traced(o, cfgs[0], sigs[0], median(seed0), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traced runs one more session of the first seed with telemetry
// attached, then the per-layer replays over its queue. The stage
// registry splits the session's time by layer; the benchmark's own
// spans time core.New and Fuzzer.Run from outside. untraced is the
// first seed's median execs per second without telemetry.
func (w fuzzWorkload) traced(o options, cfg core.Config, want fuzzSig, untraced float64, out *outcome) error {
	tr := newTracer()
	root := tr.begin("bench.traced_rep", 0, -1)
	// A session with every sink off is a live registry, which is all the
	// stage metrics need; it is never started, so no ticker runs.
	sess, err := obs.NewSession(obs.Config{
		Workload: w.target, FuzzConfig: string(w.config), Workers: w.workers,
		Seed: o.seed, BudgetNS: cfg.BudgetNS,
	})
	if err != nil {
		return fmt.Errorf("telemetry session: %w", err)
	}
	r, res, err := fuzzRep(cfg, sess, tr, root)
	if err != nil {
		return err
	}
	if err := sess.Close(); err != nil {
		return fmt.Errorf("telemetry session: %w", err)
	}
	tr.end(root)
	if sig := sigOf(res); sig != want {
		return gateErrorf("%s: traced rep reproduced %+v, untraced reps gave %+v", w.name, sig, want)
	}

	v := out.values
	for k, x := range stageMetrics([]stageRun{{snap: sess.M.Snapshot(), wall: r.wall, workers: w.workers}}) {
		v[k] = x
	}
	traced := float64(r.ops) / r.wall.Seconds()
	v["obs.trace_overhead_pct"] = 100 * (untraced - traced) / untraced
	v["core.new_s"] = median(tr.durations("core.New")) / 1e9
	v["fuzz.queue_len"] = float64(res.Queue.Len())

	var refs []caseRef
	for _, e := range res.Queue.Entries()[:min(res.Queue.Len(), o.scale.replayEntries)] {
		refs = append(refs, caseRef{workload: w.target, seed: o.seed, input: e.Input, image: e.ImageID, hasImage: e.HasImage, store: res.Store})
	}
	if err := replayLayers(tr, refs, o.scale, v); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := judgeReplay(tr, refs[:min(len(refs), o.scale.judgeReplayCases)], v); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	out.spans = tr
	return nil
}
