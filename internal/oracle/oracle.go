package oracle

import (
	"fmt"
	"strings"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/judge"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
)

// Options tunes one oracle check.
type Options struct {
	// MaxBarriers caps how many barrier crash points are validated
	// (0 = every ordering point of the execution).
	MaxBarriers int
	// PreFence also validates the pre-fence (flushed-but-unfenced) crash
	// window before each barrier.
	PreFence bool
	// MaxViolations stops the scan after this many violations
	// (0 = collect all).
	MaxViolations int
	// Minimize shrinks each violation into a delta-debugged repro bundle.
	Minimize bool
	// MaxCommands / MaxOps mirror the executor options used for the
	// sweep and the recovery replays (0 = executor defaults).
	MaxCommands int
	MaxOps      int
	// NoPrune disables representative-state pruning: every crash point is
	// recovered and judged individually (the pre-equivalence-class
	// behavior). The zero value — pruning ON — groups crash points into
	// equivalence classes by (command prefix, commit-variable content)
	// fingerprint, judges one representative per class, and attributes the
	// verdict to all members; any representative violation triggers a full
	// per-member pass, so the reported violation set is identical to an
	// unpruned scan whenever pruning finds anything at all.
	NoPrune bool
}

// Violation is one crash image the oracle could not explain. Its Kind
// is "recovery-fault" (recovery panicked — the segfault analog),
// "recovery-error" (recovery or the workload's own consistency check
// reported an error), or "state-mismatch" (recovered state equals no
// explainable prefix state).
type Violation struct {
	judge.Violation
	// For state-mismatch: the two explainable states (in-flight command
	// absent / applied) and what recovery actually produced.
	Expected     []workloads.KV
	ExpectedNext []workloads.KV
	Actual       []workloads.KV
}

// String renders the violation for reports.
func (v *Violation) String() string { return v.Render("oracle") }

// Report is the outcome of checking one test case.
type Report struct {
	Workload string
	// Barriers is the ordering-point count of the clean execution.
	Barriers int
	// Skipped is non-empty when the oracle could not judge the test case
	// (unknown workload, faulting clean run, unrecoverable start image).
	Skipped    string
	Violations []*Violation
	// Bundles holds one minimized repro per distinct minimized outcome
	// when Options.Minimize was set.
	Bundles []*Bundle
	// Stats counts the crash images validated, the representative pass's
	// classes (zero with Options.NoPrune), and the recoveries run — the
	// baseline included — against memo answers.
	judge.Stats
}

// Checker runs differential crash-consistency checks on the shared
// judging pipeline: the embedded judge.Driver owns the sweep and
// recovery arenas and the rep_check timing shard. Not safe for
// concurrent use.
type Checker struct {
	judge.Driver
}

// NewChecker returns a reusable checker.
func NewChecker() *Checker { return &Checker{} }

// Judgeable says why the oracle cannot judge the workload, nil when it
// can: it needs the workload's state-dump hook and a shadow model.
func Judgeable(workload string) error {
	prog, err := workloads.New(workload)
	if err != nil {
		return err
	}
	if _, ok := prog.(workloads.StateDumper); !ok {
		return fmt.Errorf("oracle: workload %q has no state-dump hook", workload)
	}
	_, err = CheckLine(workload)
	return err
}

// Check validates every crash image of tc's barrier sweep with a fresh
// one-shot checker.
func Check(tc executor.TestCase, opts Options) *Report {
	return NewChecker().Check(tc, opts)
}

// Check sweeps tc's ordering points, recovers every crash image, and
// verifies each recovered state is explainable: equal to the shadow
// state at the completed-command prefix, or to that prefix plus the
// whole in-flight command (atomicity + durability). Any injector on tc
// is ignored; the sweep is the failure source.
func (c *Checker) Check(tc executor.TestCase, opts Options) *Report {
	rep := c.scan(tc, opts, opts.MaxBarriers, opts.MaxViolations)
	if opts.Minimize {
		rep.Bundles = judge.Distinct(rep.Violations, func(v *Violation) *Bundle {
			return c.Minimize(tc, v, opts)
		})
	}
	return rep
}

// recovered is the oracle's per-image step: the recovered durable
// state, or the recovery's own failure (Kind/Detail only).
type recovered struct {
	dump []workloads.KV
	v    *judge.Violation
}

// shadowCheck is one test case prepared for judging: the shadow model's
// prefix states, the recovery memo, and the journaled sweep. The memo
// is keyed by image content hash: within one check the workload, bug
// flags, seed, and op cap are fixed, so identical images recover
// identically.
type shadowCheck struct {
	c        *Checker
	tc       executor.TestCase
	opts     Options
	prefixes [][]workloads.KV
	memo     judge.Memo[recovered]
	sw       *judge.Sweep
}

// prepare recovers tc's start image into the baseline S₀, derives the
// shadow prefix states from it, and sweeps tc with barriers capped at
// maxB. It returns why the case cannot be judged instead when the
// workload has no shadow model, the baseline does not recover cleanly
// (then nothing observed could be attributed to the command stream), or
// the clean run faults. The caller closes the sweep.
func (c *Checker) prepare(tc executor.TestCase, opts Options, maxB int) (*shadowCheck, string) {
	if err := Judgeable(tc.Workload); err != nil {
		return nil, err.Error()
	}
	k := &shadowCheck{c: c, tc: tc, opts: opts}
	// Seeding the memo with the start image's hash lets a crash point
	// that reproduces the start state reuse the baseline recovery. A
	// fresh device has no image: its zero key matches no crash image.
	var key [32]byte
	if tc.Image != nil {
		key = tc.Image.Hash()
	}
	base := k.memo.Do(key, func() recovered { return k.step(tc.Image) })
	if base.v != nil {
		return nil, "baseline recovery of start image not clean: " + base.v.Detail
	}
	maxCmds := opts.MaxCommands
	if maxCmds <= 0 {
		maxCmds = workloads.MaxCommands
	}
	var err error
	if k.prefixes, err = prefixStates(tc.Workload, base.dump, judge.SplitLines(tc.Input), maxCmds); err != nil {
		return nil, err.Error()
	}
	k.sw = c.Sweep(tc, executor.Options{MaxCommands: opts.MaxCommands, MaxOps: opts.MaxOps}, maxB)
	if skip := k.sw.Skipped(); skip != "" {
		k.sw.Close()
		return nil, skip
	}
	return k, ""
}

// plugin is the shadow-prefix judge: recover the crash image, then
// compare the recovered state against the explainable prefix states.
func (k *shadowCheck) plugin() judge.Plugin[recovered, *Violation] {
	return judge.Plugin[recovered, *Violation]{
		Key:     func(p executor.CrashFingerprint) [32]byte { return p.FP.ImageHash },
		Step:    func(crash *executor.Result) recovered { return k.step(crash.Image) },
		Verdict: k.verdict,
	}
}

// scan is the sweep-and-judge pass behind Check, the minimizer's
// re-validation probes, and bundle replay. maxB caps the barrier range
// scanned ([1..maxB]); maxV stops after that many violations.
// Violations come back in ascending crash-point order, so the first one
// is the earliest explicable-state failure of the scanned window. Unless
// opts.NoPrune, one representative per semantic class is judged first
// (see judge.Judge); any violation re-runs the window per member,
// reproducing the unpruned scan's violation set, order, and early stop.
func (c *Checker) scan(tc executor.TestCase, opts Options, maxB, maxV int) *Report {
	rep := &Report{Workload: tc.Workload}
	k, skip := c.prepare(tc, opts, maxB)
	if skip != "" {
		rep.Skipped = skip
		return rep
	}
	defer k.sw.Close()
	rep.Barriers = k.sw.Barriers()
	found, st := judge.Judge(k.sw, k.sw.Points(opts.PreFence), &k.memo, k.plugin(), !opts.NoPrune, maxV)
	for i := 0; i < st.Checked; i++ {
		rep.Violations = append(rep.Violations, found.At(i)...)
	}
	rep.Stats = st
	return rep
}

// verdict decides whether a crash point's recovered state is
// explainable against the shadow prefixes.
func (k *shadowCheck) verdict(p executor.CrashFingerprint, e recovered) []*Violation {
	v := &Violation{}
	v.At(k.tc.Workload, p)
	if e.v != nil {
		v.Kind, v.Detail = e.v.Kind, e.v.Detail
		return []*Violation{v}
	}
	cur := min(p.Commands, len(k.prefixes)-1)
	prev := max(cur-1, 0)
	if kvEqual(e.dump, k.prefixes[cur]) || kvEqual(e.dump, k.prefixes[prev]) {
		return nil
	}
	v.Kind = "state-mismatch"
	v.Expected, v.ExpectedNext, v.Actual = k.prefixes[prev], k.prefixes[cur], e.dump
	v.Detail = diffString(k.prefixes[prev], k.prefixes[cur], e.dump)
	return []*Violation{v}
}

// step runs recovery (Setup with no commands) on img under the case's
// bug flags, seed, and op cap, dumps the recovered durable state, and
// executes the workload's own consistency check.
func (k *shadowCheck) step(img *pmem.Image) recovered {
	checkLine, _ := CheckLine(k.tc.Workload)
	var dump []workloads.KV
	probe := func(env *workloads.Env, prog workloads.Program) error {
		dump = prog.(workloads.StateDumper).DumpState(env)
		return prog.Exec(env, checkLine)
	}
	arena := k.c.Arena()
	rtc := executor.TestCase{Workload: k.tc.Workload, Image: img, Bugs: k.tc.Bugs, Seed: k.tc.Seed}
	res := executor.Run(rtc, executor.Options{Arena: arena, MaxOps: k.opts.MaxOps, Probe: probe})
	defer arena.Recycle(res)
	switch {
	case res.Panicked:
		return recovered{v: &judge.Violation{Kind: "recovery-fault", Detail: fmt.Sprint(res.PanicVal)}}
	case res.Err != nil:
		return recovered{v: &judge.Violation{Kind: "recovery-error", Detail: res.Err.Error()}}
	}
	return recovered{dump: dump}
}

// diffString renders a compact expected-vs-actual diff for reports.
func diffString(prev, next, actual []workloads.KV) string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered state (%d keys) matches neither prefix state (%d keys) nor prefix+in-flight (%d keys)",
		len(actual), len(prev), len(next))
	toMap := func(kvs []workloads.KV) map[uint64]uint64 {
		m := make(map[uint64]uint64, len(kvs))
		for _, kv := range kvs {
			m[kv.Key] = kv.Val
		}
		return m
	}
	am, nm := toMap(actual), toMap(next)
	shown := 0
	for _, kv := range actual {
		if v, ok := nm[kv.Key]; !ok || v != kv.Val {
			if shown < 8 {
				fmt.Fprintf(&b, "; unexpected %d=%d", kv.Key, kv.Val)
			}
			shown++
		}
	}
	for _, kv := range next {
		if _, ok := am[kv.Key]; !ok {
			if shown < 8 {
				fmt.Fprintf(&b, "; missing %d=%d", kv.Key, kv.Val)
			}
			shown++
		}
	}
	if shown > 8 {
		fmt.Fprintf(&b, "; (+%d more)", shown-8)
	}
	return b.String()
}
