package experiments

import (
	"fmt"
	"strings"

	"pmfuzz/internal/core"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// Table3Row is one workload's synthetic-bug detection counts.
type Table3Row struct {
	Workload string
	// Total is the number of injected synthetic bugs (paper's column 2).
	Total int
	// AFLSysOpt and PMFuzz are the detection counts for the two compared
	// configurations (paper's columns 3 and 4).
	AFLSysOpt int
	PMFuzz    int
	// PerBug records each bug's outcome for both configurations.
	PerBug []Table3Bug
}

// Table3Bug is one injected bug's outcome.
type Table3Bug struct {
	Point          bugs.Point
	PMFuzzFound    bool
	PMFuzzBy       string
	AFLSysOptFound bool
	AFLSysOptBy    string
}

// Table3Result is the whole table.
type Table3Result struct {
	BudgetNS int64
	Rows     []Table3Row
}

// Table3 injects every synthetic bug of every listed workload (nil =
// all eight), fuzzes the buggy program under PMFuzz and AFL++ w/ SysOpt
// (the best non-PMFuzz point, per §5.3), feeds the generated test cases
// to the testing tools, and counts detections, reporting each bug to
// progress.
func Table3(workloadNames []string, budgetNS int64, seed int64, opts DetectOptions, progress Progress) (*Table3Result, error) {
	if workloadNames == nil {
		workloadNames = PaperWorkloads()
	}
	out := &Table3Result{BudgetNS: budgetNS}
	for _, wl := range workloadNames {
		prog, err := workloads.New(wl)
		if err != nil {
			return nil, err
		}
		row := Table3Row{Workload: wl}
		for _, pt := range prog.SynPoints() {
			row.Total++
			bg := bugs.NewSet().EnableSyn(pt.ID)
			wantPerf := pt.Kind.IsPerformance()

			pmDet, err := fuzzAndDetect(wl, core.PMFuzzAll, budgetNS, seed, bg, wantPerf, opts)
			if err != nil {
				return nil, err
			}
			aflDet, err := fuzzAndDetect(wl, core.AFLSysOpt, budgetNS, seed, bg, wantPerf, opts)
			if err != nil {
				return nil, err
			}
			if pmDet.Detected {
				row.PMFuzz++
			}
			if aflDet.Detected {
				row.AFLSysOpt++
			}
			row.PerBug = append(row.PerBug, Table3Bug{
				Point:          pt,
				PMFuzzFound:    pmDet.Detected,
				PMFuzzBy:       pmDet.By,
				AFLSysOptFound: aflDet.Detected,
				AFLSysOptBy:    aflDet.By,
			})
			progress.printf("table3 %s syn-bug %d: pmfuzz=%v afl-sysopt=%v",
				wl, pt.ID, pmDet.Detected, aflDet.Detected)
		}
		out.Rows = append(out.Rows, row)
		progress.printf("table3 %s: %d/%d pmfuzz, %d/%d afl-sysopt",
			wl, row.PMFuzz, row.Total, row.AFLSysOpt, row.Total)
	}
	return out, nil
}

// fuzzAndDetect runs one buggy-program session and the tool replay.
func fuzzAndDetect(wl string, cn core.ConfigName, budgetNS, seed int64,
	bg *bugs.Set, wantPerf bool, opts DetectOptions) (Detection, error) {
	cfg, err := core.DefaultConfig(wl, cn, budgetNS, seed)
	if err != nil {
		return Detection{}, err
	}
	f, err := core.New(cfg, bg)
	if err != nil {
		return Detection{}, err
	}
	res := f.Run()
	return DetectWithTools(res, bg, wantPerf, opts), nil
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: synthetic bug detection (simulated budget %.1f ms per bug per config)\n", float64(r.BudgetNS)/1e6)
	fmt.Fprintf(&b, "%-16s %10s %18s %10s\n", "Program", "#Synthetic", "#AFL++ w/ SysOpt", "#PMFuzz")
	totalAll, totalAFL, totalPM := 0, 0, 0
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %10d %18d %10d\n", row.Workload, row.Total, row.AFLSysOpt, row.PMFuzz)
		totalAll += row.Total
		totalAFL += row.AFLSysOpt
		totalPM += row.PMFuzz
	}
	fmt.Fprintf(&b, "%-16s %10d %18d %10d\n", "total", totalAll, totalAFL, totalPM)
	if totalAFL > 0 {
		fmt.Fprintf(&b, "PMFuzz/AFL++ w/ SysOpt detection ratio: %.2fx (paper: 1.4x; PMFuzz detects all)\n",
			float64(totalPM)/float64(totalAFL))
	}
	return b.String()
}
