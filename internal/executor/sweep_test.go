package executor

import (
	"bytes"
	"fmt"
	"testing"

	"pmfuzz/internal/pmem"
)

// paperWorkloads mirrors experiments.PaperWorkloads (not imported to
// avoid a package cycle): the eight workloads of Table 3.
var paperWorkloads = []string{
	"btree", "rbtree", "rtree", "skiplist",
	"hashmap-tx", "hashmap-atomic", "memcached", "redis",
}

func sweepInput(name string) []byte {
	switch name {
	case "redis":
		return []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n")
	case "memcached":
		return []byte("set 1 1\nset 2 2\ndel 1\nset 3 3\nc\n")
	default:
		var in []byte
		for i := 1; i <= 10; i++ {
			in = append(in, []byte(fmt.Sprintf("i %d %d\n", i*5%17, i))...)
		}
		return append(in, []byte("r 5\nc\n")...)
	}
}

func rangesEqual(a, b []pmem.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireResultsEqual compares everything a crash-image consumer reads:
// image identity (hash = UUID+layout+data), crash metadata, taint set,
// commit variables, and the execution counters. Tracer/Trace are the one
// documented divergence (the sweep does not replay, so the truncated
// run's coverage does not exist) and are excluded.
func requireResultsEqual(t *testing.T, label string, old, nw *Result) {
	t.Helper()
	if old.Crashed != nw.Crashed || old.Crash != nw.Crash {
		t.Fatalf("%s: crash meta: old=%+v/%v new=%+v/%v", label, old.Crash, old.Crashed, nw.Crash, nw.Crashed)
	}
	if (old.Image == nil) != (nw.Image == nil) {
		t.Fatalf("%s: image presence differs", label)
	}
	if old.Image != nil {
		if old.Image.UUID != nw.Image.UUID || old.Image.Layout != nw.Image.Layout {
			t.Fatalf("%s: image identity differs", label)
		}
		if !bytes.Equal(old.Image.Data, nw.Image.Data) {
			t.Fatalf("%s: image bytes differ", label)
		}
		if old.Image.Hash() != nw.Image.Hash() {
			t.Fatalf("%s: image hashes differ", label)
		}
	}
	if !rangesEqual(old.LostAtCrash, nw.LostAtCrash) {
		t.Fatalf("%s: taint sets differ:\nold=%v\nnew=%v", label, old.LostAtCrash, nw.LostAtCrash)
	}
	if !rangesEqual(old.CommitVars, nw.CommitVars) {
		t.Fatalf("%s: commit vars differ:\nold=%v\nnew=%v", label, old.CommitVars, nw.CommitVars)
	}
	if old.Barriers != nw.Barriers || old.Ops != nw.Ops || old.Commands != nw.Commands {
		t.Fatalf("%s: counters differ: old={b:%d o:%d c:%d} new={b:%d o:%d c:%d}",
			label, old.Barriers, old.Ops, old.Commands, nw.Barriers, nw.Ops, nw.Commands)
	}
	if len(old.BarrierOps) != len(nw.BarrierOps) {
		t.Fatalf("%s: barrier-op lists differ in length", label)
	}
	for i := range old.BarrierOps {
		if old.BarrierOps[i] != nw.BarrierOps[i] {
			t.Fatalf("%s: barrier op %d differs", label, i)
		}
	}
}

// TestSweepGoldenEquivalence pins the tentpole's contract: across all
// eight workloads, the single-pass delta sweep reproduces the per-barrier
// re-execution path bit for bit — same image hashes, taint sets, commit
// variables, and counters — including the probabilistic-injector leg.
func TestSweepGoldenEquivalence(t *testing.T) {
	maxBarriers := 0 // full sweep
	if testing.Short() {
		maxBarriers = 30 // the O(barriers*ops) reference path is slow
	}
	for _, wl := range paperWorkloads {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			tc := TestCase{Workload: wl, Input: sweepInput(wl), Seed: 3}
			old := CrashImagesReexec(tc, Options{}, maxBarriers, 0.002, 2)
			nw := CrashImages(tc, Options{}, maxBarriers, 0.002, 2)
			if len(old) == 0 {
				t.Fatalf("reference sweep produced no crash images")
			}
			if len(old) != len(nw) {
				t.Fatalf("result counts differ: reexec=%d sweep=%d", len(old), len(nw))
			}
			for i := range old {
				requireResultsEqual(t, fmt.Sprintf("result %d", i), old[i], nw[i])
			}
		})
	}
}

// TestSweepGoldenPreFence pins the pre-fence placement: for every
// barrier, PreFenceCrash(b) must equal an injected OpFailure at the PM
// operation just before the fence — the path where the subset-eviction
// rule actually persists part of the write-pending queue.
func TestSweepGoldenPreFence(t *testing.T) {
	for _, wl := range []string{"btree", "hashmap-atomic", "memcached"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			tc := TestCase{Workload: wl, Input: sweepInput(wl), Seed: 3}
			sw := SweepRun(tc, Options{})
			if sw.Barriers() == 0 {
				t.Fatalf("no barriers journaled")
			}
			checked := 0
			for b := 1; b <= sw.Barriers(); b++ {
				nw := sw.PreFenceCrash(b)
				op := sw.Clean.BarrierOps[b-1] - 1
				if nw == nil {
					if op >= 1 {
						t.Fatalf("barrier %d: sweep returned nil for valid pre-fence op %d", b, op)
					}
					continue
				}
				tcb := tc
				tcb.Injector = pmem.OpFailure{N: op}
				old := Run(tcb, Options{})
				if !old.Crashed {
					t.Fatalf("barrier %d: reference op failure did not fire", b)
				}
				requireResultsEqual(t, fmt.Sprintf("barrier %d pre-fence", b), old, nw)
				checked++
			}
			if checked == 0 {
				t.Fatalf("no pre-fence points checked")
			}
		})
	}
}

// TestSweepGoldenWithStartImage covers sweeps over a non-empty base: the
// journal's base snapshot is the input image's persisted state, not a
// zeroed pool.
func TestSweepGoldenWithStartImage(t *testing.T) {
	seedRun := Run(TestCase{Workload: "btree", Input: []byte("i 1 10\ni 2 20\n"), Seed: 1}, Options{})
	if seedRun.Faulted() || seedRun.Image == nil {
		t.Fatalf("seed run failed")
	}
	tc := TestCase{Workload: "btree", Input: []byte("i 3 30\nr 1\nc\n"), Image: seedRun.Image, Seed: 9}
	old := CrashImagesReexec(tc, Options{}, 0, 0.002, 1)
	nw := CrashImages(tc, Options{}, 0, 0.002, 1)
	if len(old) == 0 || len(old) != len(nw) {
		t.Fatalf("result counts differ: reexec=%d sweep=%d", len(old), len(nw))
	}
	for i := range old {
		requireResultsEqual(t, fmt.Sprintf("result %d", i), old[i], nw[i])
	}
}

// TestSweepIncrementalHashMatches pins the incremental hashing: the
// stamped hash on every materialized image must equal a from-scratch
// Image.Hash of the same contents, in ascending, repeated, and
// descending access orders.
func TestSweepIncrementalHashMatches(t *testing.T) {
	tc := TestCase{Workload: "hashmap-tx", Input: sweepInput("hashmap-tx"), Seed: 5}
	sw := SweepRun(tc, Options{})
	if sw.Barriers() < 4 {
		t.Fatalf("want >= 4 barriers, got %d", sw.Barriers())
	}
	sw.EnableIncrementalHash()
	order := []int{1, 2, 3, sw.Barriers(), 2, sw.Barriers() - 1}
	for _, b := range order {
		res := sw.Crash(b)
		if res == nil {
			t.Fatalf("barrier %d out of range", b)
		}
		fresh := &pmem.Image{UUID: res.Image.UUID, Layout: res.Image.Layout, Data: res.Image.Data}
		if res.Image.Hash() != fresh.Hash() {
			t.Fatalf("barrier %d: incremental hash diverges from full hash", b)
		}
	}
}

// TestSweepRunCountsOneExecution documents the perf contract at the unit
// level: a full sweep must not re-execute per barrier. The simulated
// clock shows it — the journaled run plus all materializations must cost
// far less than the per-barrier re-execution path.
func TestSweepRunCountsOneExecution(t *testing.T) {
	tc := TestCase{Workload: "btree", Input: sweepInput("btree"), Seed: 3}

	oldClock := pmem.NewClock()
	CrashImagesReexec(tc, Options{Clock: oldClock}, 0, 0, 0)

	newClock := pmem.NewClock()
	CrashImages(tc, Options{Clock: newClock}, 0, 0, 0)

	if newClock.Now()*2 >= oldClock.Now() {
		t.Fatalf("sweep simulated cost %d not well under re-execution cost %d",
			newClock.Now(), oldClock.Now())
	}
}
