package executor

import (
	"fmt"
	"testing"

	"pmfuzz/internal/pmem"
)

// This file holds the reference crash-image generators the single-pass
// sweep is golden-tested and benchmarked against. No production code
// calls them: the fuzzer and the checkers materialize crash images from
// SweepRun's journal.

// NormalImage runs the test case without failures and returns the final
// image — step ③'s "no failure" leg in the paper's Figure 11.
func NormalImage(tc TestCase, opts Options) (*pmem.Image, error) {
	tc.Injector = nil
	res := Run(tc, opts)
	if res.Err != nil {
		return nil, res.Err
	}
	if res.Panicked {
		return nil, fmt.Errorf("executor: program faulted: %v", res.PanicVal)
	}
	return res.Image, nil
}

// CrashImages sweeps failure injection across the execution's ordering
// points (every barrier) and, at probRate > 0, adds probabilistically
// placed failures at arbitrary PM operations — the two-fold crash-image
// generation strategy of §3.2. maxBarriers caps the sweep; the returned
// results include crash images and taint sets.
//
// The barrier leg runs single-pass: one journaled execution, with each
// barrier's result materialized from the copy-on-write delta journal.
// Output is byte-identical to CrashImagesReexec (pinned by golden tests).
func CrashImages(tc TestCase, opts Options, maxBarriers int, probRate float64, probSeeds int) []*Result {
	var out []*Result
	sw := SweepRun(tc, opts)
	if sw.Clean.Faulted() {
		// A faulting test case still yields its fault result; crash-image
		// generation on top is meaningless.
		return []*Result{sw.Clean}
	}
	barriers := sw.Barriers()
	if maxBarriers > 0 && barriers > maxBarriers {
		barriers = maxBarriers
	}
	for b := 1; b <= barriers; b++ {
		if res := sw.Crash(b); res != nil {
			out = append(out, res)
		}
	}
	out = append(out, probCrashImages(tc, opts, probRate, probSeeds)...)
	return out
}

// probCrashImages is the probabilistic leg of §3.2: failures at arbitrary
// PM operations still require re-execution (the crash point is not an
// ordering point), and stays identical between CrashImages and
// CrashImagesReexec.
func probCrashImages(tc TestCase, opts Options, probRate float64, probSeeds int) []*Result {
	if probRate <= 0 {
		return nil
	}
	var out []*Result
	for s := 0; s < probSeeds; s++ {
		tcp := tc
		tcp.Injector = pmem.NewProbabilisticFailure(tc.Seed+int64(s)*7919, probRate)
		res := Run(tcp, opts)
		if res.Crashed {
			out = append(out, res)
		}
	}
	return out
}

// CrashImagesReexec is the original O(barriers × ops) sweep: re-execute
// the full pre-failure input once per barrier with an injected
// BarrierFailure and snapshot the whole device each time. It is kept as
// the reference implementation the single-pass path is golden-tested
// against, and as the baseline leg of BenchmarkCrashImageSweep.
func CrashImagesReexec(tc TestCase, opts Options, maxBarriers int, probRate float64, probSeeds int) []*Result {
	var out []*Result
	// First, a clean run to learn how many barriers the execution has.
	clean := Run(tc, opts)
	if clean.Faulted() {
		return []*Result{clean}
	}
	barriers := clean.Barriers
	if maxBarriers > 0 && barriers > maxBarriers {
		barriers = maxBarriers
	}
	for b := 1; b <= barriers; b++ {
		tcb := tc
		tcb.Injector = pmem.BarrierFailure{N: b}
		res := Run(tcb, opts)
		if res.Crashed {
			out = append(out, res)
		}
	}
	out = append(out, probCrashImages(tc, opts, probRate, probSeeds)...)
	return out
}

// benchSweepInput is the B-Tree input for the crash-image sweep
// benchmark: enough inserts to cross node splits, plus a removal and a
// consistency check, yielding a few hundred ordering points.
func benchSweepInput() []byte {
	var in []byte
	for i := 1; i <= 20; i++ {
		in = append(in, []byte(fmt.Sprintf("i %d %d\n", i*5%23, i))...)
	}
	return append(in, []byte("r 5\nc\n")...)
}

// BenchmarkCrashImageSweep compares the two crash-image generation
// paths on B-Tree: "reexec" re-runs the input once per ordering point
// (the pre-optimization behavior, CrashImagesReexec), "sweep" journals
// copy-on-write deltas during ONE execution and materializes every
// barrier image from the journal. Both must produce byte-identical
// images — checked here before timing and pinned by
// TestSweepGoldenEquivalence.
func BenchmarkCrashImageSweep(b *testing.B) {
	tc := TestCase{Workload: "btree", Input: benchSweepInput(), Seed: 3}
	old := CrashImagesReexec(tc, Options{}, 0, 0.002, 2)
	nw := CrashImages(tc, Options{}, 0, 0.002, 2)
	if len(old) == 0 || len(old) != len(nw) {
		b.Fatalf("result counts differ: reexec=%d sweep=%d", len(old), len(nw))
	}
	for i := range old {
		if old[i].Image.Hash() != nw[i].Image.Hash() {
			b.Fatalf("image %d: hash mismatch between reexec and sweep", i)
		}
	}
	b.Run("reexec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CrashImagesReexec(tc, Options{}, 0, 0.002, 2)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CrashImages(tc, Options{}, 0, 0.002, 2)
		}
	})
	// Growth in the barrier count: the re-execution path is O(barriers ×
	// ops), the journaled path pays one execution plus O(changed lines)
	// per materialized barrier, so doubling maxBarriers must far less
	// than double the sweep's ns/op.
	for _, mb := range []int{25, 50, 100, 200} {
		mb := mb
		b.Run(fmt.Sprintf("sweep-barriers-%d", mb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CrashImages(tc, Options{}, mb, 0, 0)
			}
		})
		b.Run(fmt.Sprintf("reexec-barriers-%d", mb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				CrashImagesReexec(tc, Options{}, mb, 0, 0)
			}
		})
	}
}
