package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// lastLine decodes the result object on the last line of stdout.
func lastLine(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, stdout)
	}
	return res
}

// TestQuickRunPrintsEveryMetric runs all workloads at -quick sizes with
// the per-layer pass and checks that every metric BENCHMARK.json lists
// is printed, with a finite value, once per workload.
func TestQuickRunPrintsEveryMetric(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-quick", "-seed", "42", "-trace", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	printed := map[string]int{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		if !strings.HasPrefix(line, "  ") || len(f) < 3 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
			printed[f[0]]++
		}
	}
	for _, m := range sp.metrics() {
		if printed[m.Name] != len(sp.Workloads) {
			t.Errorf("metric %s printed with a finite value for %d of %d workloads", m.Name, printed[m.Name], len(sp.Workloads))
		}
	}
	res := lastLine(t, stdout.String())
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result = correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if want := len(sp.Workloads) * len(sp.PerLayer); len(res.Metrics) != want {
		t.Errorf("traced result carries %d metrics, want %d (every per-layer metric per workload)", len(res.Metrics), want)
	}
	for _, w := range sp.Workloads {
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("span file: %v", err)
		}
	}
}

// TestSingleWorkloadResult checks the invocation form a harness uses:
// one workload, double-dash flags, and a last line carrying exactly the
// end-to-end metrics under their bare names.
func TestSingleWorkloadResult(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-quick", "--workload", "btree-w1", "--seed", "3", "--seconds", "1", "--trace", "0"}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	res := lastLine(t, stdout.String())
	if len(res.Metrics) != len(sp.EndToEnd) {
		t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(sp.EndToEnd))
	}
	for _, m := range sp.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"faster", shift(8), "higher", improved},
		{"slower", shift(-8), "higher", regressed},
		{"lower is better", shift(-8), "lower", improved},
		{"noisy", []float64{80, 121, 84, 117, 90, 112, 79, 118, 101, 99}, "higher", unresolved},
		{"same", shift(0.1), "higher", unchanged},
		{"within bound but not every pair", []float64{102, 102, 102, 102, 102, 102, 102, 102, 98, 98}, "higher", unchanged},
	}
	for _, c := range cases {
		if got := compareMetric(parent, c.change, c.better, 0.05).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareCommand runs -compare over ledger files: a fail_ratio rise
// is reported and fails the comparison.
func TestCompareCommand(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, failed int64) string {
		var runs []record
		for i := 0; i < 5; i++ {
			ms := map[string]metric{}
			for _, m := range sp.EndToEnd {
				ms[m.Name] = metric{Value: 100 + float64(i%2), Unit: m.Unit}
			}
			runs = append(runs, record{Workload: "btree-w1", Correct: true, Attempted: 1000, Failed: failed, Metrics: ms})
		}
		path := filepath.Join(dir, name)
		if err := appendLedger(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, failing := write("a.json", 0), write("same.json", 0), write("failing.json", 1)

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-compare", a, "--", same}, &stdout, &stderr); code != 0 {
		t.Fatalf("identical ledgers: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if n := strings.Count(stdout.String(), " "+unchanged+"\n"); n != len(sp.EndToEnd)+1 {
		t.Errorf("identical ledgers: %d unchanged rows, want %d\n%s", n, len(sp.EndToEnd)+1, stdout.String())
	}

	stdout.Reset()
	if code := realMain([]string{"-compare", a, "--", failing}, &stdout, &stderr); code != 1 {
		t.Fatalf("fail_ratio rise: exit %d, want 1\n%s", code, stdout.String())
	}
	var row string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.Contains(line, "fail_ratio") {
			row = line
		}
	}
	if !strings.HasSuffix(row, regressed) {
		t.Errorf("fail_ratio row %q, want verdict %s", row, regressed)
	}
}
