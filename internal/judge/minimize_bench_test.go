package judge_test

import (
	"strings"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/invariant"
	"pmfuzz/internal/oracle"
)

// BenchmarkMinimizeBugs times the shared minimizer on the golden Bugs
// 1–6 cases. The oracle leg minimizes every pre-fence violation (one
// in a flushed-but-unfenced window) of a pre-fence oracle check; the
// invariant leg the first goldenInvBundles violations of a pre-fence
// invariant check against the case's mined set. Every
// minimizer probe is an early-stopping sweep, so this measures what a
// probe pays to fingerprint crash points it never judges. Finding the
// violations is set-up, off the timer.
func BenchmarkMinimizeBugs(b *testing.B) {
	type oracleJob struct {
		tc executor.TestCase
		v  *oracle.Violation
	}
	type invJob struct {
		tc  executor.TestCase
		v   *invariant.Violation
		set *invariant.Set
	}
	var oracleJobs []oracleJob
	var invJobs []invJob
	oc, ic := oracle.NewChecker(), invariant.NewChecker()
	for _, c := range goldenCases() {
		if !strings.HasPrefix(c.name, "bug") {
			continue
		}
		for _, v := range oc.Check(c.tc, oracle.Options{PreFence: true}).Violations {
			if v.PreFence {
				oracleJobs = append(oracleJobs, oracleJob{c.tc, v})
			}
		}
		set, err := ic.MineCase(c.tc, invariant.Options{})
		if err != nil {
			b.Fatalf("%s: mining: %v", c.name, err)
		}
		vs := ic.Check(c.tc, set, invariant.Options{PreFence: true}).Violations
		for _, v := range vs[:min(len(vs), goldenInvBundles)] {
			invJobs = append(invJobs, invJob{c.tc, v, set})
		}
	}
	if len(oracleJobs) == 0 || len(invJobs) == 0 {
		b.Fatalf("no violations to minimize: %d oracle, %d invariant", len(oracleJobs), len(invJobs))
	}
	b.Run("oracle", func(b *testing.B) {
		b.ReportMetric(float64(len(oracleJobs)), "minimizations/op")
		for i := 0; i < b.N; i++ {
			for _, j := range oracleJobs {
				oc.Minimize(j.tc, j.v, oracle.Options{PreFence: true})
			}
		}
	})
	b.Run("invariant", func(b *testing.B) {
		b.ReportMetric(float64(len(invJobs)), "minimizations/op")
		for i := 0; i < b.N; i++ {
			for _, j := range invJobs {
				ic.Minimize(j.tc, j.v, j.set, invariant.Options{PreFence: true})
			}
		}
	})
}
