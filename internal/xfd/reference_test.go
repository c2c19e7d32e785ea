package xfd

import (
	"fmt"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/pmem"
)

// CheckPost is the per-failure-point reference mode the golden tests
// compare Check against: it re-executes the pre-failure input once per
// barrier (and once per pre-fence placement) with an injected failure.
// postInput is the explicit post-failure input (nil replays the original
// input).
func CheckPost(tc executor.TestCase, maxBarriers int, probRate float64, probSeeds int, postInput []byte) []Report {
	clean := executor.Run(tc, executor.Options{})
	if clean.Faulted() {
		return faultWithoutFailure(clean)
	}
	barriers := clean.Barriers
	if maxBarriers > 0 && barriers > maxBarriers {
		barriers = maxBarriers
	}
	var reports []Report
	for b := 1; b <= barriers; b++ {
		reports = append(reports, CheckPoint(tc, pmem.BarrierFailure{N: b}, postInput)...)
		// Also fail just before the fence takes effect: at that instant
		// flushed-but-unfenced lines may persist in any subset, which is
		// exactly the state a missing persist_barrier() exposes.
		if b-1 < len(clean.BarrierOps) {
			if op := clean.BarrierOps[b-1] - 1; op >= 1 {
				reports = append(reports, CheckPoint(tc, pmem.OpFailure{N: op}, postInput)...)
			}
		}
	}
	return append(reports, probReports(tc, clean.Ops, probRate, probSeeds, postInput)...)
}

// CheckPostSweep is Check without its work accounting: the single-sweep
// side of the golden comparison against CheckPost.
func CheckPostSweep(tc executor.TestCase, maxBarriers int, probRate float64, probSeeds int, postInput []byte) []Report {
	reports, _ := Check(tc, maxBarriers, probRate, probSeeds, postInput)
	return reports
}

// benchSweepInput is the B-Tree input for the sweep benchmark: enough
// inserts to cross node splits, plus a removal and a consistency check,
// yielding a few hundred ordering points.
func benchSweepInput() []byte {
	var in []byte
	for i := 1; i <= 20; i++ {
		in = append(in, []byte(fmt.Sprintf("i %d %d\n", i*5%23, i))...)
	}
	return append(in, []byte("r 5\nc\n")...)
}

// BenchmarkXFDSweep compares the cross-failure checker's pre-failure
// strategies: "per-barrier" re-executes the input for every ordering
// point (CheckPost), "sweep" materializes all crash states from one
// journaled run (Check). Post-failure executions run per distinct crash
// state in the sweep and per point in the reference, so the delta here
// is the pre-failure side plus exact-duplicate reuse.
func BenchmarkXFDSweep(b *testing.B) {
	tc := executor.TestCase{Workload: "btree", Input: benchSweepInput(), Seed: 3}
	b.Run("per-barrier", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CheckPost(tc, 0, 0.002, 2, nil)
		}
	})
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Check(tc, 0, 0.002, 2, nil)
		}
	})
}
