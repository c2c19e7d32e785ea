// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate:
//
//   - Figure 13: PM-path coverage over (simulated) time for the eight
//     workloads under the five Table 2 configurations.
//   - Table 3: synthetic-bug detection counts for PMFuzz vs AFL++ w/
//     SysOpt.
//   - §5.4: reproduction of the twelve real-world bugs.
//   - §5.4.1: time-to-detection for each real-world bug.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not a 20-core Optane testbed); the comparisons preserve the shapes:
// who wins, roughly by how much, and where each bug is found.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pmfuzz/internal/core"
	"pmfuzz/internal/executor"
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/pmcheck"
	"pmfuzz/internal/workloads/bugs"
	"pmfuzz/internal/xfd"
)

// Progress receives per-phase status lines from the long-running
// experiment drivers — a fig13 sweep is workloads × configurations
// sessions and says nothing until it finishes, so the CLI hands in a
// stderr printer. nil disables reporting.
type Progress func(format string, args ...interface{})

// printf forwards to the callback when one is set.
func (p Progress) printf(format string, args ...interface{}) {
	if p != nil {
		p(format, args...)
	}
}

// PaperWorkloads is the Table 3 workload list in paper order.
func PaperWorkloads() []string {
	return []string{
		"btree", "rbtree", "rtree", "skiplist",
		"hashmap-tx", "hashmap-atomic", "memcached", "redis",
	}
}

// --- Figure 13 ---

// Fig13Cell is one workload × configuration fuzzing session.
type Fig13Cell struct {
	Workload string
	Config   core.ConfigName
	Series   []core.Sample
	PMPaths  int
	Execs    int
}

// Fig13Result is the whole figure.
type Fig13Result struct {
	BudgetNS int64
	Cells    []Fig13Cell
}

// Fig13 runs the coverage comparison for the given workloads (nil = all
// eight) with the simulated budget, reporting each cell to progress.
func Fig13(workloadNames []string, budgetNS int64, seed int64, progress Progress) (*Fig13Result, error) {
	if workloadNames == nil {
		workloadNames = PaperWorkloads()
	}
	total := len(workloadNames) * len(core.ConfigNames())
	out := &Fig13Result{BudgetNS: budgetNS}
	for _, wl := range workloadNames {
		for _, cn := range core.ConfigNames() {
			cfg, err := core.DefaultConfig(wl, cn, budgetNS, seed)
			if err != nil {
				return nil, err
			}
			f, err := core.New(cfg, nil)
			if err != nil {
				return nil, err
			}
			res := f.Run()
			out.Cells = append(out.Cells, Fig13Cell{
				Workload: wl,
				Config:   cn,
				Series:   res.Series,
				PMPaths:  res.PMPaths,
				Execs:    res.Execs,
			})
			progress.printf("fig13 [%d/%d] %s/%s: %d PM paths, %d execs",
				len(out.Cells), total, wl, cn, res.PMPaths, res.Execs)
		}
	}
	return out, nil
}

// PMPathsFor returns the final PM-path count for a cell.
func (r *Fig13Result) PMPathsFor(workload string, cfg core.ConfigName) int {
	for _, c := range r.Cells {
		if c.Workload == workload && c.Config == cfg {
			return c.PMPaths
		}
	}
	return 0
}

// GeomeanSpeedup returns the geometric-mean PM-path ratio of configA
// over configB across workloads — the paper's headline "4.6× over
// AFL++" metric shape.
func (r *Fig13Result) GeomeanSpeedup(a, b core.ConfigName) float64 {
	logSum := 0.0
	n := 0
	byWorkload := map[string]map[core.ConfigName]int{}
	for _, c := range r.Cells {
		if byWorkload[c.Workload] == nil {
			byWorkload[c.Workload] = map[core.ConfigName]int{}
		}
		byWorkload[c.Workload][c.Config] = c.PMPaths
	}
	for _, m := range byWorkload {
		pa, pb := m[a], m[b]
		if pa == 0 || pb == 0 {
			continue
		}
		logSum += math.Log(float64(pa) / float64(pb))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Render prints the figure as text: one block per workload with the
// final coverage per configuration and a coarse time series.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: PM path coverage (simulated budget %.1f ms)\n", float64(r.BudgetNS)/1e6)
	byWorkload := map[string][]Fig13Cell{}
	var order []string
	for _, c := range r.Cells {
		if _, ok := byWorkload[c.Workload]; !ok {
			order = append(order, c.Workload)
		}
		byWorkload[c.Workload] = append(byWorkload[c.Workload], c)
	}
	for _, wl := range order {
		fmt.Fprintf(&b, "\n%s\n", wl)
		for _, c := range byWorkload[wl] {
			fmt.Fprintf(&b, "  %-18s final PM paths %5d  execs %6d  series ", c.Config, c.PMPaths, c.Execs)
			b.WriteString(sparkline(c.Series))
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "\nGeo-mean PM-path ratio pmfuzz/afl++: %.2fx (paper: 4.6x)\n",
		r.GeomeanSpeedup(core.PMFuzzAll, core.AFLPlusPlus))
	return b.String()
}

// sparkline renders a coverage series at 16 sample points.
func sparkline(series []core.Sample) string {
	if len(series) == 0 {
		return ""
	}
	maxV := 0
	for _, s := range series {
		if s.PMPaths > maxV {
			maxV = s.PMPaths
		}
	}
	if maxV == 0 {
		return strings.Repeat("_", 16)
	}
	levels := []byte("_.:-=+*#%@")
	var out []byte
	for i := 0; i < 16; i++ {
		idx := i * (len(series) - 1) / 15
		v := series[idx].PMPaths * (len(levels) - 1) / maxV
		out = append(out, levels[v])
	}
	return string(out)
}

// --- shared detection machinery (step ⑤: hand test cases to the tools) ---

// DetectOptions bounds the testing-tool replay work per session.
type DetectOptions struct {
	// MaxEntries caps how many queue entries are replayed through the
	// trace checker.
	MaxEntries int
	// MaxXFDEntries caps how many entries go through the cross-failure
	// checker, and MaxXFDBarriers caps its per-entry failure sweep.
	MaxXFDEntries  int
	MaxXFDBarriers int
	// XFDProbRate/XFDProbSeeds add probabilistic failure placements to
	// the cross-failure sweep; missing-fence bugs only manifest when a
	// failure lands between two ordering points.
	XFDProbRate  float64
	XFDProbSeeds int
}

// DefaultDetect is the bound used by the experiments.
func DefaultDetect() DetectOptions {
	return DetectOptions{
		MaxEntries:     24,
		MaxXFDEntries:  6,
		MaxXFDBarriers: 30,
		XFDProbRate:    0.004,
		XFDProbSeeds:   2,
	}
}

// Detection is the outcome of feeding one fuzzing session's test cases
// to the testing tools.
type Detection struct {
	// Detected reports whether any tool flagged the bug class.
	Detected bool
	// By names the detecting tool/signal.
	By string
	// SimNS is the generation time of the first detecting test case.
	SimNS int64
}

// entrySimNS returns when a queue entry was generated.
func entrySimNS(e *fuzz.Entry) int64 { return e.FoundSimNS }

// replayEntries picks queue entries for tool replay, in generation
// order, preferring PM-path-relevant ones. The deepest image-bearing
// entries are always included: deep accumulated states are where the
// load-factor/rebalance paths live (the incremental generation payoff
// of §4.6).
func replayEntries(res *core.Result, maxN int) []*fuzz.Entry {
	entries := res.Queue.Entries()
	var picked []*fuzz.Entry
	for _, e := range entries {
		if e.NewPM || e.IsCrashImage || e.ParentID == -1 {
			picked = append(picked, e)
		}
	}
	if len(picked) == 0 {
		picked = entries
	}
	if len(picked) > maxN {
		// Reserve a quarter of the budget for the deepest entries.
		byDepth := append([]*fuzz.Entry(nil), picked...)
		sort.SliceStable(byDepth, func(i, j int) bool { return byDepth[i].Depth > byDepth[j].Depth })
		deep := map[int]bool{}
		for i := 0; i < len(byDepth) && len(deep) < maxN/4; i++ {
			deep[byDepth[i].ID] = true
		}
		// Fill the rest with the earliest entries plus an even spread.
		spread := picked[:0:0]
		seen := map[int]bool{}
		add := func(e *fuzz.Entry) {
			if !seen[e.ID] {
				seen[e.ID] = true
				spread = append(spread, e)
			}
		}
		for _, e := range picked {
			if deep[e.ID] {
				add(e)
			}
		}
		budget := maxN - len(spread)
		for i := 0; i < budget/2 && i < len(picked); i++ {
			add(picked[i])
		}
		step := len(picked) / max(1, maxN-len(spread))
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(picked) && len(spread) < maxN; i += step {
			add(picked[i])
		}
		picked = spread
	}
	sort.SliceStable(picked, func(i, j int) bool { return picked[i].ID < picked[j].ID })
	return picked
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// entryTestCase rebuilds the executor test case for a queue entry.
func entryTestCase(res *core.Result, e *fuzz.Entry, bg *bugs.Set, seed int64) (executor.TestCase, error) {
	tc := executor.TestCase{
		Workload: res.Config.Workload,
		Input:    e.Input,
		Bugs:     bg,
		Seed:     seed,
	}
	if e.HasImage {
		img, err := res.Store.Get(e.ImageID, nil)
		if err != nil {
			return tc, err
		}
		tc.Image = img
	}
	return tc, nil
}

// DetectWithTools replays the session's test cases through Pmemcheck
// (trace rules) and XFDetector (cross-failure) analogs. wantPerf selects
// the performance-bug signal; otherwise any crash-consistency signal
// (trace rule, cross-failure report, or an execution fault observed
// during fuzzing) counts.
func DetectWithTools(res *core.Result, bg *bugs.Set, wantPerf bool, opts DetectOptions) Detection {
	// Faults observed during fuzzing already are detections for
	// crash-consistency bugs (the fuzzer is the first "tool" to see a
	// segfault or failed consistency check).
	if !wantPerf {
		for _, f := range res.Faults {
			return Detection{Detected: true, By: "fuzzer-fault: " + f.Msg, SimNS: f.SimNS}
		}
	}
	// §4.6: the testing tool executes a minimum set of test cases that
	// cover new PM paths — a greedy cover over a wide candidate pool
	// keeps exactly the entries whose executions reach unique PM
	// behaviour (e.g. the one test case whose replay crosses a rebuild
	// threshold), instead of a blind positional sample.
	entries := MinimizeCorpus(res, bg, 8*opts.MaxEntries)
	// The checker replays reuse one arena; the Detection is fully built
	// (strings copied out of the reports) before each Recycle.
	arena := executor.NewArena()
	for _, e := range entries {
		tc, err := entryTestCase(res, e, bg, res.Config.Seed)
		if err != nil {
			continue
		}
		run := executor.Run(tc, executor.Options{RecordTrace: true, Arena: arena})
		if run.Trace == nil {
			arena.Recycle(run)
			continue
		}
		reports := pmcheck.Check(run.Trace.Events())
		var det Detection
		if wantPerf && pmcheck.HasClass(reports, pmcheck.Performance) {
			det = Detection{Detected: true, By: "pmemcheck: " + reports[0].Rule.String(), SimNS: entrySimNS(e)}
		}
		if !wantPerf {
			if pmcheck.HasClass(reports, pmcheck.CrashConsistency) {
				det = Detection{Detected: true, By: "pmemcheck: " + reports[0].Rule.String(), SimNS: entrySimNS(e)}
			} else if run.Faulted() {
				det = Detection{Detected: true, By: "replay-fault", SimNS: entrySimNS(e)}
			}
		}
		arena.Recycle(run)
		if det.Detected {
			return det
		}
	}
	if !wantPerf {
		// Cross-failure analysis on a few entries.
		n := 0
		for _, e := range entries {
			if n >= opts.MaxXFDEntries {
				break
			}
			tc, err := entryTestCase(res, e, bg, res.Config.Seed)
			if err != nil {
				continue
			}
			n++
			post := append(append([]byte(nil), tc.Input...), []byte("\nc\nCHECK\n")...)
			reports, _ := xfd.Check(tc, opts.MaxXFDBarriers, opts.XFDProbRate, opts.XFDProbSeeds, post)
			if len(reports) > 0 {
				return Detection{Detected: true, By: "xfdetector: " + reports[0].Kind.String(), SimNS: entrySimNS(e)}
			}
		}
	}
	return Detection{}
}
