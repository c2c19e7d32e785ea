package experiments

import (
	"strings"
	"testing"

	"pmfuzz/internal/core"
	"pmfuzz/internal/executor"
	"pmfuzz/internal/workloads/bugs"
)

const smallBudget = 120_000_000 // 120 simulated ms

func TestFig13SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full fuzzing sessions are slow")
	}
	res, err := Fig13([]string{"btree", "hashmap-tx"}, smallBudget, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*len(core.ConfigNames()) {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	// Shape checks from §5.2: PMFuzz ahead of AFL++; direct image
	// fuzzing behind PMFuzz.
	for _, wl := range []string{"btree", "hashmap-tx"} {
		pm := res.PMPathsFor(wl, core.PMFuzzAll)
		afl := res.PMPathsFor(wl, core.AFLPlusPlus)
		img := res.PMPathsFor(wl, core.AFLImgFuzz)
		if pm <= afl {
			t.Errorf("%s: pmfuzz %d <= afl++ %d", wl, pm, afl)
		}
		if img >= pm {
			t.Errorf("%s: imgfuzz %d >= pmfuzz %d", wl, img, pm)
		}
	}
	if g := res.GeomeanSpeedup(core.PMFuzzAll, core.AFLPlusPlus); g <= 1.0 {
		t.Errorf("geomean speedup = %.2f, want > 1", g)
	}
	text := res.Render()
	for _, want := range []string{"Figure 13", "btree", "hashmap-tx", "Geo-mean"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable3SubsetDetectsBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("table 3 subset is slow")
	}
	res, err := Table3([]string{"skiplist"}, smallBudget, 7, DefaultDetect(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Total != bugs.SynCounts["skiplist"] {
		t.Fatalf("total = %d, want %d", row.Total, bugs.SynCounts["skiplist"])
	}
	// PMFuzz must detect the large majority and never trail AFL++.
	if row.PMFuzz < row.Total*3/4 {
		t.Errorf("PMFuzz detected %d / %d", row.PMFuzz, row.Total)
		for _, pb := range row.PerBug {
			if !pb.PMFuzzFound {
				t.Logf("missed: %+v", pb.Point)
			}
		}
	}
	if row.PMFuzz < row.AFLSysOpt {
		t.Errorf("PMFuzz %d < AFL++ w/ SysOpt %d", row.PMFuzz, row.AFLSysOpt)
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Errorf("render missing header")
	}
}

func TestRealBugsAllDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("real-bug reproduction is slow")
	}
	res, err := RealBugs(500_000_000, 7, DefaultDetect(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DetectedCount(); got != bugs.NumRealBugs {
		for _, o := range res.Outcomes {
			if !o.Detected {
				t.Errorf("missed %s", o.Bug)
			}
		}
		t.Fatalf("detected %d / %d real bugs", got, bugs.NumRealBugs)
	}
	// §5.4.1 shape: the init-path bugs (1–5, 7, 8) are found essentially
	// immediately; later bugs take longer.
	for _, o := range res.Outcomes {
		if o.Bug <= bugs.Bug5SkipListCreateNotRetried && o.SimNS > res.BudgetNS/2 {
			t.Errorf("%s took %.1f ms; init bugs should be quick", o.Bug, float64(o.SimNS)/1e6)
		}
	}
	if !strings.Contains(res.Render(), "12/12") {
		t.Errorf("render missing paper reference")
	}
}

func TestRealBugTargetsComplete(t *testing.T) {
	for b := bugs.RealBug(1); b <= bugs.NumRealBugs; b++ {
		if RealBugTarget(b) == "" {
			t.Errorf("bug %d has no target workload", b)
		}
	}
}

func TestMinimizeCorpus(t *testing.T) {
	cfg, err := core.DefaultConfig("hashmap-tx", core.PMFuzzAll, smallBudget, 5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	kept := MinimizeCorpus(res, nil, 40)
	if len(kept) == 0 {
		t.Fatalf("minimization kept nothing")
	}
	if len(kept) >= res.Queue.Len() {
		t.Fatalf("minimization kept everything: %d of %d", len(kept), res.Queue.Len())
	}
	// The kept set must be ordered by generation (replay order matters).
	for i := 1; i < len(kept); i++ {
		if kept[i].ID < kept[i-1].ID {
			t.Fatalf("minimized set out of order")
		}
	}
}

func TestReplayEntriesBounded(t *testing.T) {
	cfg, err := core.DefaultConfig("btree", core.PMFuzzAll, smallBudget, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	picked := replayEntries(res, 10)
	if len(picked) > 10 {
		t.Fatalf("replayEntries returned %d > 10", len(picked))
	}
	if len(picked) == 0 {
		t.Fatalf("replayEntries returned nothing")
	}
	for i := 1; i < len(picked); i++ {
		if picked[i].ID < picked[i-1].ID {
			t.Fatalf("entries not in generation order")
		}
	}
}

// replayAllocBudget is the per-replay allocation ceiling for the checker
// and minimizer replay loops: the executor's arena budget plus headroom
// for the image-store fetch each replay performs. Catches any return of
// the fresh-device/tracer churn the arena removed.
const replayAllocBudget = 600

func TestReplayAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting off in -short")
	}
	cfg, err := core.DefaultConfig("btree", core.PMFuzzAll, smallBudget, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	entries := replayEntries(res, 8)
	if len(entries) == 0 {
		t.Fatal("no entries to replay")
	}
	arena := executor.NewArena()
	replayAll := func() {
		for _, e := range entries {
			tc, err := entryTestCase(res, e, nil, res.Config.Seed)
			if err != nil {
				continue
			}
			run := executor.Run(tc, executor.Options{Arena: arena})
			arena.Recycle(run)
		}
	}
	for i := 0; i < 3; i++ {
		replayAll() // warm the arena pools and the site cache
	}
	avg := testing.AllocsPerRun(10, replayAll)
	perReplay := avg / float64(len(entries))
	if perReplay > replayAllocBudget {
		t.Fatalf("steady-state replay allocates %.0f/op, budget %d", perReplay, replayAllocBudget)
	}
}
