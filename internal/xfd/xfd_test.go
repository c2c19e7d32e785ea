package xfd

import (
	"fmt"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

func kvInput() []byte {
	var in []byte
	for i := 1; i <= 14; i++ {
		in = append(in, []byte(fmt.Sprintf("i %d %d\n", i*5%17, i))...)
	}
	in = append(in, []byte("r 5\nr 10\nc\n")...)
	return in
}

func inputFor(name string) []byte {
	switch name {
	case "redis":
		return []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n")
	case "memcached":
		return []byte("set 1 1\nset 2 2\ndel 1\nset 3 3\nc\n")
	default:
		return kvInput()
	}
}

// TestNoFindingsOnFixedWorkloads: the cross-failure checker must be
// silent on every correct workload across a full barrier sweep — crash
// consistency means every failure point recovers cleanly.
func TestNoFindingsOnFixedWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("barrier sweep is slow")
	}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tc := executor.TestCase{Workload: name, Input: inputFor(name), Seed: 1}
			reports, _ := Check(tc, 0, 0.002, 3, nil)
			for _, r := range reports {
				t.Errorf("false positive: %s", r)
			}
		})
	}
}

// TestDetectsBug1to5: the create-not-retried bugs fault after a crash
// inside the creation transaction (NULL map dereference).
func TestDetectsBug1to5(t *testing.T) {
	cases := []struct {
		workload string
		bug      bugs.RealBug
	}{
		{"hashmap-tx", bugs.Bug1HashmapTXCreateNotRetried},
		{"btree", bugs.Bug2BTreeCreateNotRetried},
		{"rbtree", bugs.Bug3RBTreeCreateNotRetried},
		{"rtree", bugs.Bug4RTreeCreateNotRetried},
		{"skiplist", bugs.Bug5SkipListCreateNotRetried},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			tc := executor.TestCase{
				Workload: c.workload,
				Input:    []byte("i 1 1\ni 2 2\n"),
				Bugs:     bugs.NewSet().EnableReal(c.bug),
				Seed:     1,
			}
			// The creation transaction runs within the first few dozen
			// barriers; sweep them all.
			reports, _ := Check(tc, 0, 0, 0, nil)
			if !HasKind(reports, PostFailureFault) {
				t.Fatalf("%s not detected; %d reports", c.bug, len(reports))
			}
		})
	}
}

// TestDetectsBug6: without the manual recovery call, a crash inside the
// count-dirty window leaves Hashmap-Atomic inconsistent, observed either
// as a cross-failure read of the stale count or as a failed check.
func TestDetectsBug6(t *testing.T) {
	tc := executor.TestCase{
		Workload: "hashmap-atomic",
		Input:    []byte("i 1 1\ni 2 2\ni 3 3\nc\n"),
		Bugs:     bugs.NewSet().EnableReal(bugs.Bug6AtomicRecoveryNotCalled),
		Seed:     1,
	}
	reports, _ := Check(tc, 0, 0.002, 2, nil)
	if !HasKind(reports, CrossFailureRead) && !HasKind(reports, PostFailureInconsistency) {
		t.Fatalf("Bug 6 not detected (%d reports)", len(reports))
	}
}

// TestDetectsExample2TailBug: the Redis tail-append without backup
// (Figure 3's bug) loses the tail link on a crash, surfacing as a
// post-failure inconsistency or cross-failure read.
func TestDetectsExample2TailBug(t *testing.T) {
	// Keys 1, 9, 17 collide in the 8-bucket table, forcing tail appends.
	tc := executor.TestCase{
		Workload: "redis",
		Input:    []byte("SET 1 1\nSET 9 2\nSET 17 3\nCHECK\n"),
		Bugs:     bugs.NewSet().EnableSyn(5),
		Seed:     1,
	}
	reports, _ := Check(tc, 0, 0.002, 2, nil)
	if len(reports) == 0 {
		t.Fatalf("Example 2 tail bug not detected")
	}
}

// TestDetectsSkippedBackupAcrossFailure: a missing TX_ADD means the undo
// log cannot restore the in-place update; recovery leaves a half-done
// mutation that the consistency check or a tainted read exposes.
func TestDetectsSkippedBackupAcrossFailure(t *testing.T) {
	cases := []struct {
		workload string
		synID    int
	}{
		{"btree", 3},
		{"skiplist", 2},
		{"hashmap-tx", 4},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/syn%d", c.workload, c.synID), func(t *testing.T) {
			tc := executor.TestCase{
				Workload: c.workload,
				Input:    kvInput(),
				Bugs:     bugs.NewSet().EnableSyn(c.synID),
				Seed:     1,
			}
			reports, _ := Check(tc, 0, 0.002, 2, nil)
			if len(reports) == 0 {
				t.Fatalf("skipped backup not detected across failure")
			}
		})
	}
}

// TestSweepModeMatchesPerBarrier is the acceptance pin for the
// single-sweep mode: on every real bug the checker targets (Bugs 1–6)
// plus a correct program, CheckPostSweep must produce the exact report
// sequence of the per-barrier re-execution mode — same kinds, failure
// points, triggering events, and details.
func TestSweepModeMatchesPerBarrier(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		input    []byte
		bug      *bugs.Set
		probRate float64
		seeds    int
	}{
		{"bug1", "hashmap-tx", []byte("i 1 1\ni 2 2\n"), bugs.NewSet().EnableReal(bugs.Bug1HashmapTXCreateNotRetried), 0, 0},
		{"bug2", "btree", []byte("i 1 1\ni 2 2\n"), bugs.NewSet().EnableReal(bugs.Bug2BTreeCreateNotRetried), 0, 0},
		{"bug3", "rbtree", []byte("i 1 1\ni 2 2\n"), bugs.NewSet().EnableReal(bugs.Bug3RBTreeCreateNotRetried), 0, 0},
		{"bug4", "rtree", []byte("i 1 1\ni 2 2\n"), bugs.NewSet().EnableReal(bugs.Bug4RTreeCreateNotRetried), 0, 0},
		{"bug5", "skiplist", []byte("i 1 1\ni 2 2\n"), bugs.NewSet().EnableReal(bugs.Bug5SkipListCreateNotRetried), 0, 0},
		{"bug6", "hashmap-atomic", []byte("i 1 1\ni 2 2\ni 3 3\nc\n"), bugs.NewSet().EnableReal(bugs.Bug6AtomicRecoveryNotCalled), 0.002, 2},
		{"fixed", "btree", []byte("i 1 1\ni 2 2\nc\n"), nil, 0.002, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tc := executor.TestCase{Workload: c.workload, Input: c.input, Bugs: c.bug, Seed: 1}
			old := CheckPost(tc, 0, c.probRate, c.seeds, nil)
			nw := CheckPostSweep(tc, 0, c.probRate, c.seeds, nil)
			if len(old) != len(nw) {
				t.Fatalf("report counts differ: per-barrier=%d sweep=%d", len(old), len(nw))
			}
			for i := range old {
				if old[i] != nw[i] {
					t.Fatalf("report %d differs:\nper-barrier: %s\nsweep:       %s", i, old[i], nw[i])
				}
			}
			if c.bug != nil && len(old) == 0 {
				t.Fatalf("bug case produced no reports in either mode")
			}
		})
	}
}

// TestCheckPointPastEnd: a failure point beyond the execution produces
// no reports.
func TestCheckPointPastEnd(t *testing.T) {
	tc := executor.TestCase{Workload: "btree", Input: []byte("i 1 1\n"), Seed: 1}
	reports := CheckPoint(tc, noopInjector{}, nil)
	if reports != nil {
		t.Fatalf("reports = %v, want none", reports)
	}
}

type noopInjector struct{}

func (noopInjector) AtBarrier(int) bool { return false }
func (noopInjector) AtOp(int) bool      { return false }

func TestTaintSet(t *testing.T) {
	ts := newTaintSet([]pmem.Range{{Off: 10, Len: 10}, {Off: 30, Len: 5}})
	if hits := ts.reads(pmem.Range{Off: 0, Len: 5}); hits != nil {
		t.Fatalf("reads outside taint = %v", hits)
	}
	hits := ts.reads(pmem.Range{Off: 15, Len: 20})
	if len(hits) != 2 || hits[0] != (pmem.Range{Off: 15, Len: 5}) || hits[1] != (pmem.Range{Off: 30, Len: 5}) {
		t.Fatalf("reads = %v", hits)
	}
	ts.clear(pmem.Range{Off: 12, Len: 4})
	// Taint now: [10,12) [16,20) [30,35).
	if hits := ts.reads(pmem.Range{Off: 12, Len: 4}); hits != nil {
		t.Fatalf("cleared range still tainted: %v", hits)
	}
	if hits := ts.reads(pmem.Range{Off: 10, Len: 2}); len(hits) != 1 {
		t.Fatalf("left fragment lost: %v", hits)
	}
	ts.clear(pmem.Range{Off: 0, Len: 100})
	if !ts.empty() {
		t.Fatalf("full clear left taint: %v", ts.rs)
	}
}

// TestDetectsRemovedFences: with the ordering fences stripped from the
// insert/set path (SkipFence injections), a failure can persist the
// publish without the payload — only the queued-line eviction model
// makes this observable, as on real hardware.
func TestDetectsRemovedFences(t *testing.T) {
	if testing.Short() {
		t.Skip("fence sweep is slow")
	}
	cases := []struct {
		workload string
		synID    int
		input    []byte
	}{
		{"hashmap-atomic", 2, []byte("i 1 1\ni 2 2\ni 3 3\ni 4 4\nc\n")},
		{"memcached", 6, []byte("set 1 1\nset 2 2\nset 3 3\nset 4 4\nc\n")},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			tc := executor.TestCase{
				Workload: c.workload,
				Input:    c.input,
				Bugs:     bugs.NewSet().EnableSyn(c.synID),
				Seed:     1,
			}
			post := append(append([]byte(nil), c.input...), []byte("\nc\n")...)
			reports := CheckPost(tc, 0, 0.004, 2, post)
			if len(reports) == 0 {
				t.Fatalf("removed fences not detected")
			}
		})
	}
}

// TestPreFenceSweepCoversWindows: the same configuration must stay clean
// for the fixed programs (the pre-fence sweep must not invent findings).
func TestPreFenceSweepCoversWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("fence sweep is slow")
	}
	for _, wl := range []string{"hashmap-atomic", "memcached"} {
		in := []byte("i 1 1\ni 2 2\nc\n")
		if wl == "memcached" {
			in = []byte("set 1 1\nset 2 2\nc\n")
		}
		tc := executor.TestCase{Workload: wl, Input: in, Seed: 1}
		if reports := CheckPost(tc, 0, 0.004, 2, nil); len(reports) != 0 {
			t.Fatalf("%s: fixed program flagged: %v", wl, reports[0])
		}
	}
}

// TestSweepStatsDedup (satellite): Check skips duplicate crash states —
// its report sequence stays byte-identical to the per-failure-point
// CheckPost reference while post-failure executions are reused, and the
// stats balance (every point is either executed or reused).
func TestSweepStatsDedup(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		input    []byte
		bug      *bugs.Set
	}{
		{"clean-btree", "btree", []byte("i 1 1\ni 2 2\ni 3 3\nc\n"), nil},
		{"bug2", "btree", []byte("i 1 1\ni 2 2\n"), bugs.NewSet().EnableReal(bugs.Bug2BTreeCreateNotRetried)},
		{"clean-redis", "redis", []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n"), nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tc := executor.TestCase{Workload: c.workload, Input: c.input, Bugs: c.bug, Seed: 1}
			full := CheckPost(tc, 0, 0, 0, nil)
			pruned, ps := Check(tc, 0, 0, 0, nil)
			if len(full) != len(pruned) {
				t.Fatalf("report counts differ: per-point=%d reused=%d", len(full), len(pruned))
			}
			for i := range full {
				if full[i] != pruned[i] {
					t.Fatalf("report %d differs:\nper-point: %s\nreused:    %s", i, full[i], pruned[i])
				}
			}
			if ps.Posts+ps.Reused != ps.Points {
				t.Fatalf("stats don't balance: %+v", ps)
			}
			if ps.Reused == 0 {
				t.Fatalf("sweep reused nothing over %d points", ps.Points)
			}
		})
	}
}
