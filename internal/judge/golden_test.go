package judge_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/invariant"
	"pmfuzz/internal/oracle"
	"pmfuzz/internal/workloads/bugs"
	"pmfuzz/internal/xfd"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current checkers")

// goldenPath holds every checker's output on the golden cases.
const goldenPath = "testdata/golden.json"

// kvInput is the clean map-CLI stream the oracle parity tests use.
func kvInput() []byte {
	var b bytes.Buffer
	for i := 1; i <= 14; i++ {
		fmt.Fprintf(&b, "i %d %d\n", i*5%17, i)
	}
	b.WriteString("r 5\nr 10\nc\n")
	return b.Bytes()
}

// goldenCases are the 8 clean inputs and the Bugs 1–6 trigger inputs
// the oracle and invariant parity suites judge.
func goldenCases() []struct {
	name string
	tc   executor.TestCase
} {
	type gc = struct {
		name string
		tc   executor.TestCase
	}
	var out []gc
	clean := []struct {
		workload string
		input    []byte
	}{
		{"btree", kvInput()},
		{"rbtree", kvInput()},
		{"rtree", kvInput()},
		{"skiplist", kvInput()},
		{"hashmap-tx", kvInput()},
		{"hashmap-atomic", kvInput()},
		{"redis", []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n")},
		{"memcached", []byte("set 1 1\nset 2 2\ndel 1\nset 3 3\nc\n")},
	}
	for _, c := range clean {
		out = append(out, gc{"clean-" + c.workload, executor.TestCase{Workload: c.workload, Input: c.input, Seed: 1}})
	}
	bugCases := []struct {
		workload string
		input    string
		bug      bugs.RealBug
	}{
		{"hashmap-tx", "i 1 1\ni 2 2\n", bugs.Bug1HashmapTXCreateNotRetried},
		{"btree", "i 1 1\ni 2 2\n", bugs.Bug2BTreeCreateNotRetried},
		{"rbtree", "i 1 1\ni 2 2\n", bugs.Bug3RBTreeCreateNotRetried},
		{"rtree", "i 1 1\ni 2 2\n", bugs.Bug4RTreeCreateNotRetried},
		{"skiplist", "i 1 1\ni 2 2\n", bugs.Bug5SkipListCreateNotRetried},
		{"hashmap-atomic", "i 1 1\ni 2 2\ni 3 3\nc\n", bugs.Bug6AtomicRecoveryNotCalled},
	}
	for _, c := range bugCases {
		out = append(out, gc{fmt.Sprintf("bug%d-%s", c.bug, c.workload), executor.TestCase{
			Workload: c.workload, Input: []byte(c.input), Seed: 1,
			Bugs: bugs.NewSet().EnableReal(c.bug),
		}})
	}
	return out
}

// goldenInvBundles bounds the invariant violations minimized per case:
// Bugs 1 and 3 report over a hundred each, and every Minimize is a
// delta-debugging run.
const goldenInvBundles = 4

// reportGolden is one oracle or invariant report: verdicts in order
// plus the pipeline's accounting.
type reportGolden struct {
	Skipped    string   `json:"skipped,omitempty"`
	Barriers   int      `json:"barriers"`
	Violations []string `json:"violations"`
	Checked    int      `json:"checked"`
	Classes    int      `json:"classes"`
	ClassHits  int      `json:"class_hits"`
	Recoveries int      `json:"recoveries"`
	MemoHits   int      `json:"memo_hits"`
	Dropped    []string `json:"dropped,omitempty"`
}

// bundleGolden is a repro bundle as written to disk.
type bundleGolden struct {
	Meta  string `json:"meta"`
	Input string `json:"input"`
}

type caseGolden struct {
	Name string `json:"name"`
	// Oracle reports: pruned, unpruned, and the fuzzer's first-violation
	// check; bundles from Check with Minimize and from the fuzzer-style
	// per-violation Minimize.
	Oracle        reportGolden   `json:"oracle"`
	OracleNoPrune reportGolden   `json:"oracle_no_prune"`
	OracleFirst   reportGolden   `json:"oracle_first"`
	OracleBundles []bundleGolden `json:"oracle_bundles,omitempty"`
	OracleRepro   *bundleGolden  `json:"oracle_repro,omitempty"`
	// Invariant reports against the case's own mined set: pmcheck-style
	// (pre-fence) and fuzzer-style (first violation); bundles from
	// Minimize on the first goldenInvBundles pmcheck-style violations and
	// on the fuzzer's one.
	Invariant        reportGolden   `json:"invariant"`
	InvariantFirst   reportGolden   `json:"invariant_first"`
	InvariantBundles []bundleGolden `json:"invariant_bundles,omitempty"`
	InvariantRepro   *bundleGolden  `json:"invariant_repro,omitempty"`
	// XFD is the cross-failure checker's report sequence and work
	// accounting over the full sweep.
	XFD      []string       `json:"xfd"`
	XFDStats xfd.SweepStats `json:"xfd_stats"`
}

func oracleGolden(r *oracle.Report) reportGolden {
	g := reportGolden{
		Skipped: r.Skipped, Barriers: r.Barriers, Violations: []string{},
		Checked: r.Checked, Classes: r.Classes, ClassHits: r.ClassHits,
		Recoveries: r.Recoveries, MemoHits: r.MemoHits,
	}
	for _, v := range r.Violations {
		g.Violations = append(g.Violations, v.String())
	}
	return g
}

func invariantGolden(r *invariant.Report) reportGolden {
	g := reportGolden{
		Skipped: r.Skipped, Barriers: r.Barriers, Violations: []string{},
		Checked: r.Checked, Classes: r.Classes, ClassHits: r.ClassHits,
		Recoveries: r.Recoveries, MemoHits: r.MemoHits, Dropped: r.Dropped,
	}
	for _, v := range r.Violations {
		g.Violations = append(g.Violations, v.String())
	}
	return g
}

func bundleBytes(t *testing.T, b *oracle.Bundle) bundleGolden {
	t.Helper()
	dir := t.TempDir()
	if err := b.Write(dir); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	input, err := os.ReadFile(filepath.Join(dir, "input"))
	if err != nil {
		t.Fatal(err)
	}
	return bundleGolden{Meta: string(meta), Input: string(input)}
}

// captureCase runs every checker the judging pipeline serves on one
// case.
func captureCase(t *testing.T, name string, tc executor.TestCase) caseGolden {
	g := caseGolden{Name: name}
	oc := oracle.NewChecker()
	g.Oracle = oracleGolden(oc.Check(tc, oracle.Options{PreFence: true}))
	g.OracleNoPrune = oracleGolden(oc.Check(tc, oracle.Options{PreFence: true, NoPrune: true}))
	first := oc.Check(tc, oracle.Options{MaxViolations: 1})
	g.OracleFirst = oracleGolden(first)
	for _, b := range oc.Check(tc, oracle.Options{PreFence: true, Minimize: true}).Bundles {
		g.OracleBundles = append(g.OracleBundles, bundleBytes(t, b))
	}
	if len(first.Violations) > 0 {
		b := bundleBytes(t, oc.Minimize(tc, first.Violations[0], oracle.Options{}))
		g.OracleRepro = &b
	}

	ic := invariant.NewChecker()
	set, err := ic.MineCase(tc, invariant.Options{})
	if err != nil {
		t.Fatalf("%s: mining: %v", name, err)
	}
	irep := ic.Check(tc, set, invariant.Options{PreFence: true})
	g.Invariant = invariantGolden(irep)
	ifirst := ic.Check(tc, set, invariant.Options{MaxViolations: 1})
	g.InvariantFirst = invariantGolden(ifirst)
	for i, v := range irep.Violations {
		if i == goldenInvBundles {
			break
		}
		if b := ic.Minimize(tc, v, set, invariant.Options{PreFence: true}); b != nil {
			g.InvariantBundles = append(g.InvariantBundles, bundleBytes(t, b))
		}
	}
	if len(ifirst.Violations) > 0 {
		if b := ic.Minimize(tc, ifirst.Violations[0], set, invariant.Options{}); b != nil {
			bg := bundleBytes(t, b)
			g.InvariantRepro = &bg
		}
	}

	reports, stats := xfdCheck(tc)
	g.XFD = []string{}
	for _, r := range reports {
		g.XFD = append(g.XFD, fmt.Sprintf("%+v", r))
	}
	g.XFDStats = stats
	return g
}

// xfdCheck is the cross-failure checker's full sweep with its work
// accounting.
func xfdCheck(tc executor.TestCase) ([]xfd.Report, xfd.SweepStats) {
	return xfd.Check(tc, 0, 0, 0, nil)
}

// TestJudgeGolden pins what the differential oracle, the invariant
// oracle and the cross-failure checker report on the golden cases —
// verdicts in order, the pruning and memo accounting, self-validation
// drops, xfd's report sequence and work counts, and the minimized repro
// bundles byte for byte. Run with -update to re-capture.
func TestJudgeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden capture runs every checker on 14 cases (~40 s)")
	}
	var got []caseGolden
	for _, c := range goldenCases() {
		got = append(got, captureCase(t, c.name, c.tc))
	}
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to capture)", err)
	}
	var want []caseGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for i := range want {
		w, _ := json.MarshalIndent(want[i], "", "  ")
		g, _ := json.MarshalIndent(got[i], "", "  ")
		if !bytes.Equal(w, g) {
			t.Errorf("%s diverged from the golden capture:\nwant: %s\ngot:  %s", want[i].Name, w, g)
		}
	}
}
