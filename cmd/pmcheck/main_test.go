package main

import (
	"bytes"
	"strings"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/invariant"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// modellessProg is a minimal registered workload with no state-dump
// hook and no shadow model — the configuration that makes the
// differential oracle unusable and forces resolveOracles' fallback.
type modellessProg struct{}

func (modellessProg) Name() string                      { return "pmcheck-test-modelless" }
func (modellessProg) PoolSize() int                     { return 1 << 16 }
func (modellessProg) Setup(*workloads.Env) error        { return nil }
func (modellessProg) Exec(*workloads.Env, []byte) error { return nil }
func (modellessProg) Close(*workloads.Env) *pmem.Image  { return nil }
func (modellessProg) SynPoints() []bugs.Point           { return nil }
func (modellessProg) SeedInputs() [][]byte              { return nil }

func init() {
	workloads.Register("pmcheck-test-modelless", func() workloads.Program { return modellessProg{} })
}

func TestResolveOracles(t *testing.T) {
	cases := []struct {
		name                string
		workload            string
		oracleOn, invOn     bool
		wantOracle, wantInv bool
		wantWarn            bool
	}{
		{"both on, modeled workload", "btree", true, true, true, true, false},
		{"both on, model-less workload falls back to invariant only",
			"pmcheck-test-modelless", true, true, false, true, true},
		{"oracle only, model-less workload keeps its skip-and-report path",
			"pmcheck-test-modelless", true, false, true, false, false},
		{"invariant only, model-less workload", "pmcheck-test-modelless", false, true, false, true, false},
		{"invariant only, modeled workload", "btree", false, true, false, true, false},
		{"neither", "btree", false, false, false, false, false},
		{"both on, unknown workload falls back (oracle would error anyway)",
			"no-such-workload", true, true, false, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var warn bytes.Buffer
			gotOracle, gotInv := resolveOracles(c.workload, c.oracleOn, c.invOn, &warn)
			if gotOracle != c.wantOracle || gotInv != c.wantInv {
				t.Fatalf("resolveOracles(%q, %v, %v) = (%v, %v), want (%v, %v)",
					c.workload, c.oracleOn, c.invOn, gotOracle, gotInv, c.wantOracle, c.wantInv)
			}
			if warned := warn.Len() > 0; warned != c.wantWarn {
				t.Fatalf("warning emitted = %v, want %v (output %q)", warned, c.wantWarn, warn.String())
			}
			if c.wantWarn && !strings.Contains(warn.String(), "no shadow model") {
				t.Fatalf("warning %q does not name the missing shadow model", warn.String())
			}
		})
	}
}

func TestHasShadowModel(t *testing.T) {
	if !hasShadowModel("btree") {
		t.Fatal("btree should have a shadow model")
	}
	if hasShadowModel("pmcheck-test-modelless") {
		t.Fatal("the registered model-less workload must not report a shadow model")
	}
	if hasShadowModel("no-such-workload") {
		t.Fatal("an unknown workload must not report a shadow model")
	}
}

// TestInvariantReprosDistinct: on Bug 2 the invariant leg reports 17
// violations that all shrink to one repro (empty input, the same
// pre-fence barrier and rule), so -repro-out writes one bundle, not one
// per violation.
func TestInvariantReprosDistinct(t *testing.T) {
	tc := executor.TestCase{
		Workload: "btree", Input: []byte("i 1 1\ni 2 2\n"), Seed: 1,
		Bugs: bugs.NewSet().EnableReal(bugs.Bug2BTreeCreateNotRetried),
	}
	ck := invariant.NewChecker()
	set, err := ck.MineCase(tc, invariant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := ck.Check(tc, set, invariant.Options{PreFence: true})
	if len(rep.Violations) < 2 {
		t.Fatalf("want several violations to shrink, got %d", len(rep.Violations))
	}
	bundles := invariantRepros(ck, tc, set, rep.Violations)
	if len(bundles) != 1 {
		t.Fatalf("%d violations gave %d bundles, want 1", len(rep.Violations), len(bundles))
	}
	if b := bundles[0]; len(b.Input) != 0 || !b.PreFence || b.Invariant == "" {
		t.Fatalf("unexpected repro: input %q pre-fence %t rule %q", b.Input, b.PreFence, b.Invariant)
	}
}
