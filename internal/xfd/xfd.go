// Package xfd is the XFDetector analog: a cross-failure bug detector
// that reasons about program execution before and after a failure.
//
// For one test case and one failure point it runs two stages, like the
// original tool's pre-failure and post-failure processes:
//
//  1. Pre-failure: execute the input with the failure injected, harvest
//     the crash image and the taint set — the byte ranges the pre-failure
//     execution wrote but never made durable.
//  2. Post-failure: execute the recovery-plus-workload on the crash
//     image, tracking the taint set: a write clears taint; a read of a
//     still-tainted range is a cross-failure read — the program consumed
//     data whose durable value is not what the pre-failure execution
//     intended. Program faults (null-OID dereferences, the segfault
//     analog) and failed semantic checks are also reported; that is how
//     the paper's Bugs 1–6 were observed.
package xfd

import (
	"fmt"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/judge"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
)

// Kind classifies a cross-failure finding.
type Kind int

// Finding kinds.
const (
	// CrossFailureRead: post-failure execution read data that the
	// pre-failure execution wrote but never persisted.
	CrossFailureRead Kind = iota
	// PostFailureFault: the post-failure execution crashed on the crash
	// image (segmentation-fault analog).
	PostFailureFault
	// PostFailureInconsistency: a workload consistency check failed
	// after recovery.
	PostFailureInconsistency
)

var kindNames = map[Kind]string{
	CrossFailureRead:         "cross-failure-read",
	PostFailureFault:         "post-failure-fault",
	PostFailureInconsistency: "post-failure-inconsistency",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Report is one cross-failure finding.
type Report struct {
	Kind Kind
	// Barrier/Op locate the injected failure in the pre-failure run.
	Barrier int
	Op      int
	// Event is the post-failure event that triggered the finding (for
	// CrossFailureRead).
	Event trace.Event
	// Detail is a human-readable description.
	Detail string
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("[xfd/%s] failure@barrier=%d,op=%d: %s", r.Kind, r.Barrier, r.Op, r.Detail)
}

// taintSet tracks un-persisted byte ranges across the failure boundary.
type taintSet struct {
	rs []pmem.Range
}

func newTaintSet(rs []pmem.Range) *taintSet {
	return &taintSet{rs: pmem.NormalizeRanges(append([]pmem.Range(nil), rs...))}
}

// reads returns the tainted sub-ranges overlapping r.
func (t *taintSet) reads(r pmem.Range) []pmem.Range {
	var hits []pmem.Range
	for _, e := range t.rs {
		if e.Overlaps(r) {
			lo, hi := e.Off, e.End()
			if r.Off > lo {
				lo = r.Off
			}
			if r.End() < hi {
				hi = r.End()
			}
			hits = append(hits, pmem.Range{Off: lo, Len: hi - lo})
		}
	}
	return hits
}

// clear removes r from the taint set (a post-failure write re-defines
// the data).
func (t *taintSet) clear(r pmem.Range) {
	var out []pmem.Range
	for _, e := range t.rs {
		if !e.Overlaps(r) {
			out = append(out, e)
			continue
		}
		if e.Off < r.Off {
			out = append(out, pmem.Range{Off: e.Off, Len: r.Off - e.Off})
		}
		if e.End() > r.End() {
			out = append(out, pmem.Range{Off: r.End(), Len: e.End() - r.End()})
		}
	}
	t.rs = out
}

// empty reports whether no taint remains.
func (t *taintSet) empty() bool { return len(t.rs) == 0 }

// CheckPoint runs the two-stage analysis for one failure injector.
// postInput is the command stream executed on the crash image; passing
// nil replays the original input followed by the workload's consistency
// check, the way PMFuzz reuses crash images in the next iteration.
func CheckPoint(tc executor.TestCase, inj pmem.FailureInjector, postInput []byte) []Report {
	pre := tc
	pre.Injector = inj
	preRes := executor.Run(pre, executor.Options{})
	if !preRes.Crashed {
		return nil // failure point past the end of execution
	}
	return analyzePost(tc, preRes, postInput, executor.NewArena())
}

// analyzePost executes the post-failure stage on a crash image, on
// arena, and derives reports from the taint set and the execution
// outcome.
func analyzePost(tc executor.TestCase, preRes *executor.Result, postInput []byte, arena *executor.Arena) []Report {
	if postInput == nil {
		postInput = tc.Input
	}
	post := executor.TestCase{
		Workload: tc.Workload,
		Input:    postInput,
		Image:    preRes.Image,
		Bugs:     tc.Bugs,
		Seed:     tc.Seed,
	}
	postRes := executor.Run(post, executor.Options{Arena: arena, RecordTrace: true})
	defer func() {
		arena.RecycleImage(postRes.Image)
		arena.Recycle(postRes)
	}()

	var reports []Report
	mk := func(k Kind, e trace.Event, detail string) {
		reports = append(reports, Report{
			Kind: k, Barrier: preRes.Crash.Barrier, Op: preRes.Crash.Op,
			Event: e, Detail: detail,
		})
	}

	taint := newTaintSet(preRes.LostAtCrash)
	// Commit variables are exempt: recovery reading the old durable
	// value of an atomically published flag/pointer is the recovery
	// mechanism working, not a cross-failure bug (the paper's XFDetector
	// handles this with source annotations).
	for _, cv := range preRes.CommitVars {
		taint.clear(cv)
	}
	if !taint.empty() {
		for _, e := range postRes.Trace.Events() {
			switch e.Kind {
			case trace.Load:
				r := pmem.Range{Off: e.Off, Len: e.Len}
				for _, hit := range taint.reads(r) {
					mk(CrossFailureRead, e, fmt.Sprintf(
						"read of [%d,+%d): written before the failure but never persisted",
						hit.Off, hit.Len))
					// Report each tainted range once.
					taint.clear(hit)
				}
			case trace.Store, trace.NTStore:
				taint.clear(pmem.Range{Off: e.Off, Len: e.Len})
			}
			if taint.empty() {
				break
			}
		}
	}
	if postRes.Panicked {
		mk(PostFailureFault, trace.Event{}, fmt.Sprintf(
			"post-failure execution faulted: %v", postRes.PanicVal))
	} else if postRes.Err != nil {
		mk(PostFailureInconsistency, trace.Event{}, fmt.Sprintf(
			"post-failure execution reported: %v", postRes.Err))
	}
	return reports
}

// SweepStats reports the work one Check performed.
type SweepStats struct {
	// Points counts ordering-point crash states enumerated; Posts counts
	// post-failure executions actually run for them; Reused counts
	// points whose reports were cloned from an exact-duplicate point.
	// Points == Posts + Reused.
	Points int
	Posts  int
	Reused int
}

// Check sweeps failure injection across every ordering point of the test
// case (capped at maxBarriers; 0 = unlimited) and, when probRate > 0,
// adds probSeeds probabilistically placed failures — mirroring §3.2's
// two-fold crash-image strategy — and returns all findings plus the
// sweep's work accounting. The probabilistic placements matter for
// missing-fence bugs: their windows lie strictly between ordering
// points, where barrier failures cannot land. postInput is the explicit
// post-failure input (nil replays the original input); testing tools
// append the workload's consistency check so corrupted recovery states
// are observed even when the original input never asks for one.
//
// Check is the post-failure taint-analysis plugin on the shared judging
// pipeline: ONE journaled pre-failure execution supplies the crash state
// at every ordering point, barrier and pre-fence placements alike. The
// post-failure runs, per point as in the paper's two-stage design, are
// memoized by the point's exact key (image bytes, taint set,
// commit-variable exemptions), which fixes everything the analysis
// reads but the Barrier/Op stamp each point rewrites — so exact reuse is
// lossless, needs no class pass, and the report sequence equals the
// per-failure-point re-execution reference (pinned by test).
func Check(tc executor.TestCase, maxBarriers int, probRate float64, probSeeds int, postInput []byte) ([]Report, SweepStats) {
	var d judge.Driver
	sw := d.Sweep(tc, executor.Options{}, maxBarriers)
	defer sw.Close()
	if sw.Skipped() != "" {
		return faultWithoutFailure(sw.Clean), SweepStats{}
	}
	points := sw.Points(true)
	var memo judge.Memo[[]Report]
	found, st := judge.Judge(sw, points, &memo, judge.Plugin[[]Report, Report]{
		Key:     executor.CrashFingerprint.ExactKey,
		Step:    func(crash *executor.Result) []Report { return analyzePost(tc, crash, postInput, d.Arena()) },
		Verdict: restamp,
	}, false, 0)
	// Points enumerate pre-fence(b) then barrier(b); report
	// barrier-then-pre-fence per b, the order of a per-barrier sweep.
	var reports []Report
	for i := 0; i < len(points); i++ {
		if points[i].PreFence {
			reports = append(reports, found.At(i+1)...)
			reports = append(reports, found.At(i)...)
			i++
		} else {
			reports = append(reports, found.At(i)...)
		}
	}
	stats := SweepStats{Points: st.Checked, Posts: st.Recoveries, Reused: st.MemoHits}
	return append(reports, probReports(tc, sw.Clean.Ops, probRate, probSeeds, postInput)...), stats
}

// restamp stamps a point's reports with its own failure coordinates.
// Every other field is a pure function of the crash state and the post
// input, which the exact key fixes.
func restamp(p executor.CrashFingerprint, rs []Report) []Report {
	if len(rs) == 0 {
		return nil
	}
	barrier := p.Barrier
	if p.PreFence {
		barrier = -1 // pre-fence placements report Crash.Barrier = -1
	}
	out := make([]Report, len(rs))
	for i, r := range rs {
		r.Barrier, r.Op = barrier, p.Op
		out[i] = r
	}
	return out
}

// faultWithoutFailure reports a test case that faults with no injected
// failure at all — not a cross-failure bug, but always worth surfacing.
func faultWithoutFailure(clean *executor.Result) []Report {
	return []Report{{
		Kind:   PostFailureFault,
		Detail: fmt.Sprintf("test case faults without any failure: err=%v panic=%v", clean.Err, clean.PanicVal),
	}}
}

// probReports runs the probabilistic placements. These crash points are
// not ordering points, so each is genuinely re-executed.
func probReports(tc executor.TestCase, totalOps int, probRate float64, probSeeds int, postInput []byte) []Report {
	if probRate <= 0 {
		return nil
	}
	var reports []Report
	for s := 0; s < probSeeds; s++ {
		// Deterministic op-level placements spread across the run.
		op := (s + 1) * totalOps / (probSeeds + 1)
		if op < 1 {
			op = 1
		}
		reports = append(reports, CheckPoint(tc, pmem.OpFailure{N: op}, postInput)...)
		inj := pmem.NewProbabilisticFailure(tc.Seed+int64(s)*104729, probRate)
		reports = append(reports, CheckPoint(tc, inj, postInput)...)
	}
	return reports
}

// HasKind reports whether any finding has the given kind.
func HasKind(reports []Report, k Kind) bool {
	for _, r := range reports {
		if r.Kind == k {
			return true
		}
	}
	return false
}
