package experiments

import (
	"fmt"
	"strings"

	"pmfuzz/internal/core"
	"pmfuzz/internal/workloads/bugs"
)

// realBugTarget maps each §5.4 bug to the workload that contains it.
var realBugTarget = map[bugs.RealBug]string{
	bugs.Bug1HashmapTXCreateNotRetried: "hashmap-tx",
	bugs.Bug2BTreeCreateNotRetried:     "btree",
	bugs.Bug3RBTreeCreateNotRetried:    "rbtree",
	bugs.Bug4RTreeCreateNotRetried:     "rtree",
	bugs.Bug5SkipListCreateNotRetried:  "skiplist",
	bugs.Bug6AtomicRecoveryNotCalled:   "hashmap-atomic",
	bugs.Bug7MemcachedRedundantFlush:   "memcached",
	bugs.Bug8HashmapTXRedundantAdd:     "hashmap-tx",
	bugs.Bug9RBTreeRedundantSetNew:     "rbtree",
	bugs.Bug10RBTreeRedundantAddFirst:  "rbtree",
	bugs.Bug11RBTreeRedundantSetParent: "rbtree",
	bugs.Bug12BTreeRedundantAddInsert:  "btree",
}

// RealBugTarget exposes the bug → workload mapping.
func RealBugTarget(b bugs.RealBug) string { return realBugTarget[b] }

// RealBugOutcome is one bug's reproduction result: whether PMFuzz's test
// cases exposed it, which tool saw it, and the simulated
// time-to-detection (§5.4.1).
type RealBugOutcome struct {
	Bug      bugs.RealBug
	Workload string
	Detected bool
	By       string
	SimNS    int64
	Execs    int
}

// RealBugsResult covers all twelve bugs.
type RealBugsResult struct {
	BudgetNS int64
	Outcomes []RealBugOutcome
}

// RealBugs fuzzes each buggy program with PMFuzz and feeds the test
// cases to the tools, reproducing the §5.4 findings and reporting each
// bug to progress.
func RealBugs(budgetNS int64, seed int64, opts DetectOptions, progress Progress) (*RealBugsResult, error) {
	out := &RealBugsResult{BudgetNS: budgetNS}
	for b := bugs.RealBug(1); b <= bugs.NumRealBugs; b++ {
		o, err := RealBug1(b, budgetNS, seed, opts)
		if err != nil {
			return nil, err
		}
		out.Outcomes = append(out.Outcomes, o)
		status := "not found"
		if o.Detected {
			status = "found by " + o.By
		}
		progress.printf("realbugs [%d/%d] %s on %s: %s",
			int(b), int(bugs.NumRealBugs), o.Bug, o.Workload, status)
	}
	return out, nil
}

// RealBug1 reproduces a single §5.4 bug: fuzz the buggy program under
// PMFuzz, then run the testing tools over the generated test cases.
func RealBug1(b bugs.RealBug, budgetNS, seed int64, opts DetectOptions) (RealBugOutcome, error) {
	wl := realBugTarget[b]
	bg := bugs.NewSet().EnableReal(b)
	cfg, err := core.DefaultConfig(wl, core.PMFuzzAll, budgetNS, seed)
	if err != nil {
		return RealBugOutcome{}, err
	}
	f, err := core.New(cfg, bg)
	if err != nil {
		return RealBugOutcome{}, err
	}
	res := f.Run()
	det := DetectWithTools(res, bg, b.IsPerformance(), opts)
	return RealBugOutcome{
		Bug:      b,
		Workload: wl,
		Detected: det.Detected,
		By:       det.By,
		SimNS:    det.SimNS,
		Execs:    res.Execs,
	}, nil
}

// DetectedCount returns how many of the twelve bugs were found.
func (r *RealBugsResult) DetectedCount() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Detected {
			n++
		}
	}
	return n
}

// Render prints the §5.4 reproduction summary.
func (r *RealBugsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.4: real-world bug reproduction (simulated budget %.1f ms per bug)\n",
		float64(r.BudgetNS)/1e6)
	for _, o := range r.Outcomes {
		status := "NOT FOUND"
		detail := ""
		if o.Detected {
			status = "found"
			detail = fmt.Sprintf(" at %.2f ms by %s", float64(o.SimNS)/1e6, o.By)
		}
		fmt.Fprintf(&b, "  %-60s [%s]%s\n", o.Bug.String(), status, detail)
	}
	fmt.Fprintf(&b, "detected %d / %d (paper: 12/12)\n", r.DetectedCount(), bugs.NumRealBugs)
	return b.String()
}
