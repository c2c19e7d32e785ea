package invariant

import (
	"bytes"
	"encoding/hex"
	"fmt"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/judge"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
	"pmfuzz/internal/workloads"
)

// Options tunes one invariant check.
type Options struct {
	// MaxBarriers caps how many barrier crash points are judged
	// (0 = every ordering point of the execution).
	MaxBarriers int
	// PreFence also judges the pre-fence (flushed-but-unfenced) crash
	// window before each barrier.
	PreFence bool
	// MaxViolations stops the scan after this many violations
	// (0 = collect all).
	MaxViolations int
	// MaxCommands / MaxOps mirror the executor options used for the
	// sweep, the prefix validations, and the recovery replays.
	MaxCommands int
	MaxOps      int
	// NoPrune disables representative-state pruning of the
	// recovery-based value checks (ordering and atomicity rules are
	// judged per point from the sweep analysis either way — they cost
	// no recovery, so there is nothing to prune).
	NoPrune bool
	// NoSelfValidate fires rules the test case's own clean execution
	// refutes as crash-point violations instead of dropping them. The
	// default (self-validation ON) re-validates the whole set against
	// this very case before judging — refuted rules land in
	// Report.Dropped — which is what guarantees zero false positives
	// on clean sweeps even when the set was mined elsewhere.
	NoSelfValidate bool
}

// Violation is one crash image that broke a mined invariant (or whose
// recovery failed outright). Its Kind is "order-violation",
// "atomicity-violation", "value-mismatch", "recovery-fault", or
// "recovery-error".
type Violation struct {
	judge.Violation
	// Inv is the violated rule in short form ("" for recovery faults).
	Inv string
	// Image is a short content-hash prefix of the judged crash image,
	// the image ID cross-oracle disagreement reports cite.
	Image string
}

// String renders the violation for reports.
func (v *Violation) String() string { return v.Render("invariant") }

// Report is the outcome of checking one test case against a set.
type Report struct {
	Workload string
	// Barriers is the ordering-point count of the clean execution.
	Barriers int
	// Skipped is non-empty when the case could not be judged.
	Skipped    string
	Violations []*Violation
	// Dropped lists the canonical lines of invariants self-validation
	// removed: rules this case's own clean execution (or its prefix
	// at-rest images) refuted. On a set mined from the same
	// configuration Dropped stays empty; entries signal that the set
	// and the checked program diverge (foreign set, changed flush/fence
	// behavior).
	Dropped []string
	// Stats counts the crash points judged (ordering rules at every
	// point, value rules via recovery), the value leg's representative
	// classes (zero with Options.NoPrune), and its recoveries against
	// memo answers.
	judge.Stats
}

// Checker mines and judges invariants on the shared judging pipeline:
// the embedded judge.Driver owns the sweep arena, the arena prefix
// validations and recovery replays run on, and the rep_check timing
// shard. Not safe for concurrent use.
type Checker struct {
	judge.Driver
}

// NewChecker returns a reusable checker.
func NewChecker() *Checker { return &Checker{} }

// Observe mines one clean test case into m: the full execution plus
// every command prefix (the zero-command prefix included) each count as
// one observation. Prefix observation is what kills mid-run value
// candidates — bytes a crash before their write would legitimately
// lack differ in some shorter prefix's at-rest image — and is also the
// property the miner-soundness test holds the survivors to. Returns an
// error when any execution faults: mining requires clean runs.
func (c *Checker) Observe(m *Miner, tc executor.TestCase, opts Options) error {
	if m.workload != tc.Workload {
		return fmt.Errorf("invariant: miner is for %q, case is for %q", m.workload, tc.Workload)
	}
	err := c.prefixRuns(tc, opts, true, func(res *executor.Result) {
		m.Observe(res.Trace.Events(), res.Image.Data)
	})
	if err != nil {
		return fmt.Errorf("invariant: %w", err)
	}
	return nil
}

// prefixRuns executes tc's command prefixes lines[:0], lines[:1], … on
// the recovery arena and hands each clean result to fn, stopping at the
// first faulting prefix with its error. Mining (mine set) also runs the
// whole stream and records PM-operation traces; self-validation reads
// the whole run's image from its sweep and needs no traces.
func (c *Checker) prefixRuns(tc executor.TestCase, opts Options, mine bool, fn func(*executor.Result)) error {
	lines := judge.SplitLines(tc.Input)
	maxCmds := opts.MaxCommands
	if maxCmds <= 0 {
		maxCmds = workloads.MaxCommands
	}
	lines = lines[:min(len(lines), maxCmds)]
	n := len(lines)
	if mine {
		n++
	}
	arena := c.Arena()
	for k := 0; k < n; k++ {
		ptc := tc
		ptc.Input = judge.JoinLines(lines[:k])
		res := executor.Run(ptc, executor.Options{
			Arena:       arena,
			RecordTrace: mine,
			MaxCommands: opts.MaxCommands,
			MaxOps:      opts.MaxOps,
		})
		var err error
		if res.Faulted() {
			err = fmt.Errorf("prefix %d/%d faulted: panicked=%v err=%v", k, len(lines), res.Panicked, res.Err)
		} else {
			fn(res)
		}
		arena.RecycleImage(res.Image)
		arena.Recycle(res)
		if err != nil {
			return err
		}
	}
	return nil
}

// MineCase mines a one-case set: observe tc, then extract survivors.
func (c *Checker) MineCase(tc executor.TestCase, opts Options) (*Set, error) {
	m := NewMiner(tc.Workload)
	if err := c.Observe(m, tc, opts); err != nil {
		return nil, err
	}
	return m.Mine(), nil
}

// ivInterval is one refuting pairing's crash-point window: crashes at
// barriers in [lo,hi] (or pre-fence windows in [preLo,preHi]) observe
// the rule broken.
type ivInterval struct {
	inv          *Invariant
	lo, hi       int
	preLo, preHi int
	pa, pb       int
}

// Check judges every crash point of tc's barrier sweep against set.
// Ordering and atomicity rules are decided analytically from the
// sweep's own trace — a crash at barrier x observes store s iff s's
// persist barrier is <= x — so they cost no recovery. Value rules are
// judged on the at-rest image after recovering each crash image
// (pruned by semantic class and memoized by image hash), and only when
// recovery was passive: a recovery that rewrites program data
// re-establishes state whose bytes mined constants cannot predict.
func (c *Checker) Check(tc executor.TestCase, set *Set, opts Options) *Report {
	rep := &Report{Workload: tc.Workload}
	if set.Len() == 0 {
		rep.Skipped = "empty invariant set"
		return rep
	}
	if set.Workload != tc.Workload {
		rep.Skipped = fmt.Sprintf("invariant set is for %q, case is for %q", set.Workload, tc.Workload)
		return rep
	}

	sw := c.Sweep(tc, executor.Options{
		RecordTrace: true,
		MaxCommands: opts.MaxCommands,
		MaxOps:      opts.MaxOps,
	}, opts.MaxBarriers)
	defer sw.Close()
	if rep.Skipped = sw.Skipped(); rep.Skipped != "" {
		return rep
	}
	rep.Barriers = sw.Barriers()

	an := analyze(sw.Clean.Trace.Events())
	intervals, refuted := pairingIntervals(an, set, sw.MaxBarrier())

	// Self-validation: drop rules this case's own clean behavior
	// refutes instead of flagging crash points with them.
	dropped := map[*Invariant]bool{}
	if !opts.NoSelfValidate {
		for iv := range refuted {
			dropped[iv] = true
		}
		if !c.validateValues(tc, set, sw.Clean.Image, dropped, opts, rep) {
			return rep
		}
		for _, iv := range set.Invs {
			if dropped[iv] {
				rep.Dropped = append(rep.Dropped, iv.Line())
			}
		}
		live := intervals[:0]
		for _, in := range intervals {
			if !dropped[in.inv] {
				live = append(live, in)
			}
		}
		intervals = live
	}

	values := activeValues(set, dropped)

	points := sw.Points(opts.PreFence)

	// Value leg: recover each (pruned, memoized) crash point's image and
	// compare the at-rest result against the surviving constants. It
	// judges every point whatever MaxViolations is; the assembly below
	// applies the cap.
	var valAt judge.Findings[*Violation]
	if len(values) > 0 {
		var memo judge.Memo[[]*Violation]
		valAt, rep.Stats = judge.Judge(sw, points, &memo, judge.Plugin[[]*Violation, *Violation]{
			Key:     func(p executor.CrashFingerprint) [32]byte { return p.FP.ImageHash },
			Step:    func(crash *executor.Result) []*Violation { return c.recoverJudge(tc, crash, values, opts) },
			Verdict: func(_ executor.CrashFingerprint, vs []*Violation) []*Violation { return vs },
		}, !opts.NoPrune, 0)
		rep.Checked = 0 // the assembly below counts the points it reaches
	}

	// Assembly: walk crash points in order, stamping ordering verdicts
	// (interval membership) and value verdicts (recovery templates).
	for i, fp := range points {
		rep.Checked++
		var vs []*Violation
		for _, in := range intervals {
			lo, hi := in.lo, in.hi
			if fp.PreFence {
				lo, hi = in.preLo, in.preHi
			}
			if fp.Barrier < lo || fp.Barrier > hi {
				continue
			}
			kind := "order-violation"
			if in.inv.Kind == Atomic {
				kind = "atomicity-violation"
			}
			vs = append(vs, &Violation{Inv: in.inv.Short(), Violation: judge.Violation{
				Kind: kind,
				Detail: fmt.Sprintf("%s: stores persist at barriers %s and %s",
					in.inv.Short(), barrierStr(in.pa), barrierStr(in.pb)),
			}})
		}
		vs = append(vs, valAt.At(i)...)
		for _, tmpl := range vs {
			v := *tmpl
			v.At(tc.Workload, fp)
			v.Image = hex.EncodeToString(fp.FP.ImageHash[:6])
			rep.Violations = append(rep.Violations, &v)
			if opts.MaxViolations > 0 && len(rep.Violations) >= opts.MaxViolations {
				return rep
			}
		}
	}
	return rep
}

// barrierStr renders a persist barrier index ("never" for stores that
// never drained).
func barrierStr(b int) string {
	if b >= persistNever {
		return "never"
	}
	return fmt.Sprintf("%d", b)
}

// pairingIntervals scans the clean execution's store pairings against
// the set's ordering and atomicity rules and returns the crash-point
// windows in which a refuting pairing is observable, plus the refuted
// rule set. Windows are conservative for pre-fence crashes: only
// barriers where the later store is definitely durable and the earlier
// definitely lost count.
func pairingIntervals(an *analysis, set *Set, maxB int) ([]ivInterval, map[*Invariant]bool) {
	orderBy := map[uint64]*Invariant{}
	atomBy := map[uint64]*Invariant{}
	for _, iv := range set.Invs {
		switch iv.Kind {
		case Order:
			orderBy[pairKey(iv.A, iv.B)] = iv
		case Atomic:
			atomBy[pairKey(iv.A, iv.B)] = iv
		}
	}
	var out []ivInterval
	refuted := map[*Invariant]bool{}
	clamp := func(in ivInterval) {
		if in.hi > maxB {
			in.hi = maxB
		}
		if in.preHi > maxB {
			in.preHi = maxB
		}
		refuted[in.inv] = true
		if in.lo <= in.hi || in.preLo <= in.preHi {
			out = append(out, in)
		}
	}
	last := map[uint32]int{}
	for i := range an.stores {
		x := &an.stores[i]
		if x.internal {
			continue
		}
		for site, j := range last {
			if site == x.site {
				continue
			}
			y := &an.stores[j]
			pa, pb := y.persistB, x.persistB
			if iv, ok := orderBy[pairKey(site, x.site)]; ok && pa > pb {
				// The x-store is durable from barrier pb on, while its
				// preceding y-store only becomes durable at pa.
				clamp(ivInterval{inv: iv, lo: pb, hi: pa - 1, preLo: pb + 1, preHi: pa - 1, pa: pa, pb: pb})
			}
			lo, hi := site, x.site
			if lo > hi {
				lo, hi = hi, lo
			}
			if iv, ok := atomBy[pairKey(lo, hi)]; ok && pa != pb {
				a, b := pa, pb
				if a > b {
					a, b = b, a
				}
				clamp(ivInterval{inv: iv, lo: a, hi: b - 1, preLo: a + 1, preHi: b - 1, pa: pa, pb: pb})
			}
		}
		last[x.site] = i
	}
	return out, refuted
}

// activeValues collects the set's value rules minus the dropped ones.
func activeValues(set *Set, dropped map[*Invariant]bool) []*Invariant {
	var out []*Invariant
	for _, iv := range set.Invs {
		if iv.Kind == Value && !dropped[iv] {
			out = append(out, iv)
		}
	}
	return out
}

// validateValues re-validates the set's value rules against this very
// case's clean prefix images (the full run's at-rest image included):
// any rule a clean execution refutes goes to dropped. Returns false
// (setting rep.Skipped) when a prefix execution faults.
func (c *Checker) validateValues(tc executor.TestCase, set *Set, fullImg *pmem.Image, dropped map[*Invariant]bool, opts Options, rep *Report) bool {
	values := activeValues(set, dropped)
	if len(values) == 0 {
		return true
	}
	check := func(data []byte) {
		for _, iv := range values {
			if dropped[iv] {
				continue
			}
			if iv.Off+iv.Len > len(data) || !bytes.Equal(data[iv.Off:iv.Off+iv.Len], iv.Data) {
				dropped[iv] = true
			}
		}
	}
	check(fullImg.Data)
	if err := c.prefixRuns(tc, opts, false, func(res *executor.Result) { check(res.Image.Data) }); err != nil {
		rep.Skipped = err.Error()
		return false
	}
	return true
}

// recoverJudge recovers one crash image (Setup with no commands, the
// workload's own recovery path) and compares the recovered at-rest
// image against the value rules. A recovery fault or error is itself a
// violation. Value rules only apply when recovery was passive — it
// performed no program-level PM stores — because an active recovery
// (create-retry, recount) legitimately rebuilds state at addresses the
// mined constants cannot predict. The returned violations are
// templates: Kind/Inv/Detail set, crash-point fields stamped later.
func (c *Checker) recoverJudge(tc executor.TestCase, crash *executor.Result, values []*Invariant, opts Options) []*Violation {
	rtc := executor.TestCase{Workload: tc.Workload, Image: crash.Image, Bugs: tc.Bugs, Seed: tc.Seed}
	arena := c.Arena()
	res := executor.Run(rtc, executor.Options{
		Arena:       arena,
		RecordTrace: true,
		MaxCommands: -1,
		MaxOps:      opts.MaxOps,
	})
	defer func() {
		arena.RecycleImage(res.Image)
		arena.Recycle(res)
	}()
	switch {
	case res.Panicked:
		return []*Violation{{Violation: judge.Violation{Kind: "recovery-fault", Detail: fmt.Sprint(res.PanicVal)}}}
	case res.Err != nil:
		return []*Violation{{Violation: judge.Violation{Kind: "recovery-error", Detail: res.Err.Error()}}}
	}
	for _, ev := range res.Trace.Events() {
		if (ev.Kind == trace.Store || ev.Kind == trace.NTStore) && !ev.Internal {
			return nil // active recovery: value constants don't apply
		}
	}
	var out []*Violation
	data := res.Image.Data
	for _, iv := range values {
		var detail string
		if iv.Off+iv.Len > len(data) {
			detail = fmt.Sprintf("%s: recovered image too small (%d bytes)", iv.Short(), len(data))
		} else if got := data[iv.Off : iv.Off+iv.Len]; !bytes.Equal(got, iv.Data) {
			detail = fmt.Sprintf("%s: at rest after recovery got %s, want %s", iv.Short(), hexTrunc(got), hexTrunc(iv.Data))
		} else {
			continue
		}
		out = append(out, &Violation{Inv: iv.Short(), Violation: judge.Violation{Kind: "value-mismatch", Detail: detail}})
	}
	return out
}

// hexTrunc hex-dumps at most 16 bytes.
func hexTrunc(b []byte) string {
	if len(b) <= 16 {
		return hex.EncodeToString(b)
	}
	return hex.EncodeToString(b[:16]) + "..."
}
