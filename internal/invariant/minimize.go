package invariant

import (
	"pmfuzz/internal/executor"
	"pmfuzz/internal/judge"
	"pmfuzz/internal/oracle"
)

// Minimize shrinks a violating test case to a replayable repro bundle,
// reusing the differential oracle's bundle format so invariant findings
// flow through the same repro pipeline, and the shared minimizer
// (judge.Shrink: truncation, then ddmin over command lines), every
// candidate re-validated by a check for its first violation. Ordering
// violations are judged analytically per crash point, so the
// earliest-violation probe already lands on the first bad barrier — no
// barrier bisection pass is needed. Returns nil if the violation stops
// reproducing (flaky).
func (c *Checker) Minimize(tc executor.TestCase, v *Violation, set *Set, opts Options) *oracle.Bundle {
	opts.NoPrune = true
	opts.PreFence = opts.PreFence || v.PreFence
	opts.MaxViolations = 1
	input, cur := judge.Shrink(tc.Input, v.Commands, nil, func(input []byte) *Violation {
		probe := tc
		probe.Input = input
		if rep := c.Check(probe, set, opts); len(rep.Violations) > 0 {
			return rep.Violations[0]
		}
		return nil
	})
	if cur == nil {
		return nil
	}
	syn, real := tc.Bugs.Enabled()
	return &oracle.Bundle{
		Workload:     tc.Workload,
		Seed:         tc.Seed,
		Input:        input,
		StartImage:   tc.Image,
		Barrier:      cur.Barrier,
		PreFence:     cur.PreFence,
		Op:           cur.Op,
		Commands:     cur.Commands,
		Kind:         cur.Kind,
		Detail:       cur.Detail,
		Invariant:    cur.Inv,
		SynBugs:      syn,
		RealBugs:     real,
		OrigInputLen: len(tc.Input),
		OrigBarrier:  v.Barrier,
	}
}

// ReplayBundle re-checks a repro bundle against a mined set, scanning
// only the bundle's recorded crash point. Used by pmcheck -repro for
// invariant-kind bundles (oracle.Bundle.Replay scans with the
// differential oracle, which a model-less workload does not have).
func (c *Checker) ReplayBundle(b *oracle.Bundle, set *Set, opts Options) *Report {
	opts.PreFence = opts.PreFence || b.PreFence
	opts.NoPrune = true
	tc := b.TestCase()
	rep := c.Check(tc, set, opts)
	if rep.Skipped != "" {
		return rep
	}
	kept := rep.Violations[:0]
	for _, v := range rep.Violations {
		if v.Barrier == b.Barrier && v.PreFence == b.PreFence {
			kept = append(kept, v)
		}
	}
	rep.Violations = kept
	return rep
}
