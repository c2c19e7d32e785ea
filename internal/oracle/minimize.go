package oracle

import (
	"pmfuzz/internal/executor"
	"pmfuzz/internal/judge"
)

// Minimize shrinks violation v of tc into a repro bundle with the shared
// minimizer (judge.Shrink: truncation, then ddmin over command lines),
// every candidate re-validated by a scan for its first violation, then
// bisects the crash point toward the earliest violating barrier of the
// minimized stream. The minimized input is always a subsequence of
// tc.Input's lines (never larger), and the recorded barrier is verified
// violating on the minimized stream.
func (c *Checker) Minimize(tc executor.TestCase, v *Violation, opts Options) *Bundle {
	// Minimization probes run unpruned: every candidate verdict comes
	// from individually judged crash points, so repro bundles stay
	// byte-identical to the pre-pruning minimizer's regardless of how the
	// violation was first found.
	opts.NoPrune = true
	origLen, origBarrier := len(tc.Input), v.Barrier
	input, v := judge.Shrink(tc.Input, v.Commands, v, func(input []byte) *Violation {
		probe := tc
		probe.Input = input
		if rep := c.scan(probe, opts, 0, 1); len(rep.Violations) > 0 {
			return rep.Violations[0]
		}
		return nil
	})
	v = c.earliestBarrier(tc, input, v, opts)

	syn, real := tc.Bugs.Enabled()
	return &Bundle{
		Workload:     tc.Workload,
		Seed:         tc.Seed,
		Input:        input,
		StartImage:   tc.Image,
		Barrier:      v.Barrier,
		PreFence:     v.PreFence,
		Op:           v.Op,
		Commands:     v.Commands,
		Kind:         v.Kind,
		Detail:       v.Detail,
		Expected:     v.Expected,
		ExpectedNext: v.ExpectedNext,
		Actual:       v.Actual,
		SynBugs:      syn,
		RealBugs:     real,
		OrigInputLen: origLen,
		OrigBarrier:  origBarrier,
	}
}

// earliestBarrier bisects the crash points of v's kind on the (already
// minimized) input toward the earliest violating barrier
// (judge.Earliest). Every accepted midpoint was itself judged violating;
// when none is, or the input cannot be judged, v stands.
func (c *Checker) earliestBarrier(tc executor.TestCase, input []byte, v *Violation, opts Options) *Violation {
	if v.Barrier <= 1 {
		return v
	}
	tc.Input = input
	k, skip := c.prepare(tc, opts, 0)
	if skip != "" {
		return v
	}
	defer k.sw.Close()
	if best := judge.Earliest(k.sw, k.plugin(), v.PreFence, v.Barrier); best != nil {
		return best[0]
	}
	return v
}
