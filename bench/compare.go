package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// side summarises one side's runs of one workload and metric.
type side struct{ q1, med, q3 float64 }

func newSide(values []float64) side {
	var s side
	s.q1, s.med, s.q3 = quartiles(values)
	return s
}

// row is one workload and metric compared across the two sides.
type row struct {
	workload, metric, unit string
	a, b                   side
	won, pairs             int // pairs (a[i], b[i]) in which b read better
	verdict                string
}

// Verdicts, after the rules in README.md.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
	missing    = "missing"
)

// compareMetric decides one row. better is "higher" or "lower"; bound
// is the share of a's median by which b's may worsen.
func compareMetric(a, b []float64, better string, bound float64) row {
	r := row{a: newSide(a), b: newSide(b)}
	sign := 1.0 // >0 when larger is better
	if better == "lower" {
		sign = -1
	}
	r.pairs = min(len(a), len(b))
	for i := 0; i < r.pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			r.won++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	base := math.Abs(r.a.med)
	gain := sign * (r.b.med - r.a.med) // >0 when b's median is better
	spread := math.Max(r.a.q3-r.a.q1, r.b.q3-r.b.q1)
	switch {
	case math.IsNaN(gain) || math.IsNaN(spread):
		r.verdict = missing
	case -gain > bound*base:
		r.verdict = regressed
	case r.pairs > 0 && 10*r.won >= 9*r.pairs && gain > r.a.q3-r.a.q1:
		r.verdict = improved
	case spread > bound*base && !allBetter:
		r.verdict = unresolved
	default:
		r.verdict = unchanged
	}
	return r
}

// compareRuns builds one row per workload and end-to-end metric, plus a
// fail_ratio row per workload, from the untraced runs of both sides.
func compareRuns(sp *spec, a, b []record) []row {
	var rows []row
	a, b = untraced(a), untraced(b)
	for _, w := range workloadsOf(append(append([]record(nil), a...), b...)) {
		ra, rb := byWorkload(a, w), byWorkload(b, w)
		if len(ra) == 0 || len(rb) == 0 {
			rows = append(rows, row{workload: w, metric: "*", verdict: missing})
			continue
		}
		for _, m := range sp.EndToEnd {
			r := compareMetric(values(ra, m.Name), values(rb, m.Name), m.Better, m.Bound)
			r.workload, r.metric, r.unit = w, m.Name, m.Unit
			rows = append(rows, r)
		}
		fa, fb := failRatio(ra), failRatio(rb)
		r := row{workload: w, metric: "fail_ratio", unit: "ratio", a: newSide([]float64{fa}), b: newSide([]float64{fb}), verdict: unchanged}
		if fb > fa {
			r.verdict = regressed
		}
		rows = append(rows, r)
	}
	return rows
}

func untraced(runs []record) []record {
	var out []record
	for _, r := range runs {
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func byWorkload(runs []record, w string) []record {
	var out []record
	for _, r := range runs {
		if r.Workload == w {
			out = append(out, r)
		}
	}
	return out
}

// values lists a metric's value per run; a run without it reads NaN,
// which makes the row's verdict "missing".
func values(runs []record, name string) []float64 {
	var v []float64
	for _, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			m.Value = math.NaN()
		}
		v = append(v, m.Value)
	}
	return v
}

func failRatio(runs []record) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return ratio(failed, attempted)
}

// runCompare implements -compare A.json... -- B.json...: A is the
// parent side, B the change. It exits 1 when any row regressed or is
// missing from one side.
func runCompare(sp *spec, args []string, stdout, stderr io.Writer) int {
	var aFiles, bFiles []string
	for i, arg := range args {
		if arg == "--" {
			aFiles, bFiles = args[:i], args[i+1:]
			break
		}
	}
	if len(aFiles) == 0 || len(bFiles) == 0 {
		fmt.Fprintln(stderr, "bench: usage: -compare A.json... -- B.json...")
		return 2
	}
	a, err := readLedgers(aFiles)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readLedgers(bFiles)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rows := compareRuns(sp, a, b)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tB won\tverdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, r.a.q1, r.a.med, r.a.q3, r.b.q1, r.b.med, r.b.q3, r.won, r.pairs, r.verdict)
		if r.verdict == regressed || r.verdict == missing {
			code = 1
		}
	}
	tw.Flush()
	return code
}

// workloadsOf lists the workloads present in runs, in first-seen order.
func workloadsOf(runs []record) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}
