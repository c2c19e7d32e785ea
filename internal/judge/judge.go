// Package judge is the crash-point judging pipeline the crash-consistency
// checkers share: the hand-off of generated crash images to the testing
// tools (the paper's Figure 9, step ⑤). A Driver runs one journaled sweep
// per check and a checker's Plugin judges its fingerprinted crash points
// in cursor order — one representative per semantic class with a full
// per-member fallback (Pathfinder's representative testing), or every
// member — with the plugin's expensive per-image step memoized by a key
// the plugin picks. The differential oracle's shadow-prefix judge, the
// invariant oracle's mined-rule value judge, and xfd's post-failure taint
// analysis are its three plugins.
//
// Shrink and Distinct are the shared minimizer: truncation, then ddmin
// over command lines behind a "does this input still violate?" callback,
// keeping one bundle per distinct minimized outcome.
package judge

import (
	"fmt"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/obs"
)

// Driver owns one checker's executor arenas — one for journaled sweeps,
// one for the plugin's recovery replays, which the sweep's copy-on-write
// journal makes safe to interleave with materialization — and the shard
// that times representative checks under the rep_check stage. The zero
// value is ready to use. Not safe for concurrent use.
type Driver struct {
	sweepArena, recArena executor.Arena
	shard                *obs.Shard
}

// SetShard attaches a metrics shard for rep_check stage timing (nil
// detaches). Timing is read-only: judging stays off the simulated clock.
func (d *Driver) SetShard(sh *obs.Shard) { d.shard = sh }

// Arena is the recovery arena plugins run their per-image steps and
// other replays on.
func (d *Driver) Arena() *executor.Arena { return &d.recArena }

// Sweep is one journaled execution under judgment.
type Sweep struct {
	*executor.SweepResult
	d    *Driver
	maxB int
}

// Sweep executes tc once with the copy-on-write journal attached, on the
// driver's sweep arena (o.Arena is ignored). maxB caps the barriers
// judged; 0 or a cap past the end judges every ordering point. Close the
// sweep when done.
func (d *Driver) Sweep(tc executor.TestCase, o executor.Options, maxB int) *Sweep {
	o.Arena = &d.sweepArena
	sw := executor.SweepRun(tc, o)
	if n := sw.Barriers(); maxB <= 0 || maxB > n {
		maxB = n
	}
	return &Sweep{SweepResult: sw, d: d, maxB: maxB}
}

// Close returns the sweep's pooled state to its driver.
func (s *Sweep) Close() { s.d.sweepArena.Recycle(s.Clean) }

// Skipped says why the sweep cannot be judged, "" when it can: a clean
// run that faults has no crash points to attribute.
func (s *Sweep) Skipped() string {
	if !s.Clean.Faulted() {
		return ""
	}
	return fmt.Sprintf("clean execution faulted: panicked=%v err=%v", s.Clean.Panicked, s.Clean.Err)
}

// MaxBarrier is the last barrier judged.
func (s *Sweep) MaxBarrier() int { return s.maxB }

// Points fingerprints the judged crash points in cursor order: for each
// barrier up to the cap, its pre-fence window (when preFence is set and
// the point exists), then the barrier itself.
func (s *Sweep) Points(preFence bool) []executor.CrashFingerprint {
	return s.Fingerprints(s.maxB, preFence)
}

// crash materializes the crash point at barrier b — its pre-fence
// window when preFence — or returns nil when there is none.
func (s *Sweep) crash(b int, preFence bool) *executor.Result {
	if preFence {
		return s.PreFenceCrash(b)
	}
	return s.Crash(b)
}

// materialize resolves a point to its crash Result, stamping the image
// with the journal-derived content hash so no step rehashes it. Points
// enumerate only existing crash points, so the result is never nil.
func (s *Sweep) materialize(p executor.CrashFingerprint) *executor.Result {
	res := s.crash(p.Barrier, p.PreFence)
	res.Image.SetPrecomputedHash(p.FP.ImageHash)
	return res
}

// Violation is what every checker reports about a violating crash
// point: where the failure fired and the verdict there. The checkers'
// own violation types embed it.
type Violation struct {
	Workload string
	// Barrier is the ordering-point index of the injected failure; with
	// PreFence set the crash fired in the flushed-but-unfenced window
	// just before that barrier.
	Barrier  int
	PreFence bool
	// Op is the PM-operation index of the failure.
	Op int
	// Commands is how many command lines had started when the failure
	// fired; command Commands-1 is the in-flight one.
	Commands int
	// Kind names the verdict (a recovery fault, a state mismatch, a
	// broken rule); Detail explains it.
	Kind   string
	Detail string
}

// At stamps v with the workload and crash point p.
func (v *Violation) At(workload string, p executor.CrashFingerprint) {
	v.Workload, v.Barrier, v.PreFence, v.Op, v.Commands = workload, p.Barrier, p.PreFence, p.Op, p.Commands
}

// Render formats v for reports under the checker's tag.
func (v *Violation) Render(tag string) string {
	at := fmt.Sprintf("barrier %d", v.Barrier)
	if v.PreFence {
		at = fmt.Sprintf("pre-fence op %d", v.Op)
	}
	return fmt.Sprintf("[%s] %s: crash at %s (op %d, %d commands started): %s: %s",
		tag, v.Workload, at, v.Op, v.Commands, v.Kind, v.Detail)
}

// Plugin is one checker's verdict on materialized crash points. E is the
// outcome of its expensive per-image step, V one finding.
type Plugin[E, V any] struct {
	// Key is the memo key of a point's step: points with equal keys
	// share one step (the image hash when the step reads only the image).
	Key func(p executor.CrashFingerprint) [32]byte
	// Step runs the per-image step — a recovery, a post-failure run — on
	// a materialized crash point.
	Step func(crash *executor.Result) E
	// Verdict derives the point's findings from its step's outcome; none
	// means clean.
	Verdict func(p executor.CrashFingerprint, e E) []V
}

// Memo caches a plugin's step by key within one check.
type Memo[E any] struct {
	entries    map[[32]byte]E
	runs, hits int
}

// Do returns the step cached under key, running step and caching its
// outcome on a miss.
func (m *Memo[E]) Do(key [32]byte, step func() E) E {
	if e, ok := m.entries[key]; ok {
		m.hits++
		return e
	}
	if m.entries == nil {
		m.entries = map[[32]byte]E{}
	}
	e := step()
	m.runs++
	m.entries[key] = e
	return e
}

// Stats is one check's judging accounting.
type Stats struct {
	// Checked counts the crash points covered: judged, or attributed the
	// clean verdict of their class representative.
	Checked int
	// Classes / ClassHits count the semantic classes and duplicate-class
	// points of the representative pass (both zero without it).
	Classes   int
	ClassHits int
	// Recoveries counts the per-image steps actually run (recovery
	// executions, for the oracles); MemoHits counts the points answered
	// from the check's memo instead — identical images never recover
	// twice.
	Recoveries int
	MemoHits   int
}

// Findings holds one pass's findings per point, aligned with the judged
// points; nil when every covered point was clean.
type Findings[V any] [][]V

// At returns point i's findings.
func (f Findings[V]) At(i int) []V {
	if f == nil {
		return nil
	}
	return f[i]
}

// Judge runs p over points, which must come from s in cursor order.
//
// With prune set it first runs the representative pass: points group
// into classes by semantic key and only each class's first member is
// judged, timed under rep_check. When every representative is clean the
// verdict extends to its whole class and nothing else runs. A violating
// representative makes that attribution unsound, so the pass falls back
// to judging every member in order (the memo answers the points already
// judged), which reproduces the unpruned findings exactly. Without prune
// only the per-member pass runs. The per-member pass stops once maxV
// findings are in (0 = never); Stats.Checked says how far it got. The
// memo may already hold steps (a checker's baseline recovery); Stats
// counts them too.
func Judge[E, V any](s *Sweep, points []executor.CrashFingerprint, m *Memo[E], p Plugin[E, V], prune bool, maxV int) (found Findings[V], st Stats) {
	defer func() { st.Recoveries, st.MemoHits = m.runs, m.hits }()
	judge := func(fp executor.CrashFingerprint) []V {
		e := m.Do(p.Key(fp), func() E { return p.Step(s.materialize(fp)) })
		return p.Verdict(fp, e)
	}
	if prune {
		seen := map[uint64]bool{}
		clean := true
		for _, fp := range points {
			k := fp.SemanticKey()
			if seen[k] {
				st.ClassHits++
				continue
			}
			seen[k] = true
			st.Classes++
			t0 := s.d.shard.Begin()
			clean = len(judge(fp)) == 0
			s.d.shard.End(obs.StageRepCheck, t0)
			if !clean {
				break
			}
		}
		if clean {
			st.Checked = len(points)
			return nil, st
		}
	}
	n := 0
	for i, fp := range points {
		st.Checked++
		vs := judge(fp)
		if len(vs) == 0 {
			continue
		}
		if found == nil {
			found = make(Findings[V], len(points))
		}
		found[i] = vs
		if n += len(vs); maxV > 0 && n >= maxV {
			break
		}
	}
	return found, st
}

// Earliest bisects barriers [1..hi] toward the earliest crash point of
// one kind (pre-fence windows or barriers) that p judges violating,
// probing a single point per step with p's step run directly — backward
// seeks rebuild from the journal base, so out-of-order probes are safe.
// It assumes the violating points of that kind form a suffix; when they
// do not, bisection may miss the global minimum, but every probe it
// accepts was itself judged violating. Returns the findings of the
// earliest violating probe, nil when none violated.
func Earliest[E, V any](s *Sweep, p Plugin[E, V], preFence bool, hi int) []V {
	var best []V
	lo := 1
	hi = min(hi, s.Barriers())
	for lo < hi {
		mid := (lo + hi) / 2
		var vs []V
		if res := s.crash(mid, preFence); res != nil {
			fp := executor.CrashFingerprint{Barrier: mid, PreFence: preFence, Op: res.Crash.Op, Commands: res.Commands}
			vs = p.Verdict(fp, p.Step(res))
		}
		if len(vs) > 0 {
			best, hi = vs, mid
		} else {
			lo = mid + 1
		}
	}
	return best
}
