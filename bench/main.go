// Command bench is pmfuzz's wall-clock benchmark. It drives the public
// API of core, executor, imgstore, fuzz, oracle and invariant in one
// process, times each workload from outside with tracing off, checks
// the outputs are correct, and prints every end-to-end metric listed in
// BENCHMARK.json with its unit. With -trace it adds a telemetry-on pass
// and per-layer replays and prints the per-layer metrics instead; with
// -compare it compares two sets of ledger files. README.md describes the
// workloads and metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh -seed 42
//	bash bench/run.sh -workload btree-w1 -seed 7 -trace out/
//	bash bench/run.sh -compare parent.json -- change.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
	"time"
)

// scale holds the run sizes. -quick shrinks every one so the whole
// benchmark finishes in seconds.
type scale struct {
	fuzzBudgetMS     int64 // 0 keeps each workload's own budget
	subSeeds         int   // seeds each fuzzing run spreads its sessions over
	fuzzSetups       int   // warm-up sessions, each timed as one set-up
	corpusSeeds      int   // crash-judge corpus sessions per target
	corpusMS         int64 // simulated budget of each corpus session
	casesPerTarget   int
	judgeSetups      int
	minPasses        int // timed passes a run makes whatever -seconds says
	maxPasses        int
	replayEntries    int // leading queue entries the replays cycle over
	replayImages     int // decoded images the replays may hold at once
	replayCalls      int // calls per replayed function
	judgeReplayCases int // queue entries the fuzzing workloads' oracle replay judges
}

var (
	fullScale = scale{
		subSeeds: 4, fuzzSetups: 5,
		corpusSeeds: 2, corpusMS: 60, casesPerTarget: 32, judgeSetups: 3,
		minPasses: 3, maxPasses: 12,
		replayEntries: 256, replayImages: 64, replayCalls: 1000, judgeReplayCases: 8,
	}
	quickScale = scale{
		fuzzBudgetMS: 100, subSeeds: 1, fuzzSetups: 1,
		corpusSeeds: 1, corpusMS: 60, casesPerTarget: 2, judgeSetups: 1,
		minPasses: 1, maxPasses: 1,
		replayEntries: 16, replayImages: 8, replayCalls: 20, judgeReplayCases: 2,
	}
)

// subSeed derives the j-th session seed of a run; the first is the
// run's own seed.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_003 }

// options are one invocation's settings.
type options struct {
	seed     int64
	seconds  float64 // timed seconds per workload once the minimum passes are done
	traceDir string  // where the per-layer pass writes span files; "" = no pass
	scale    scale
}

// another reports whether a workload that has made done timed passes,
// measuring timed seconds, makes one more: always until minPasses, then
// while one more pass of the average length so far fits in o.seconds.
func (o options) another(done int, timed float64) bool {
	if done < o.scale.minPasses {
		return true
	}
	return done < o.scale.maxPasses && timed*float64(done+1)/float64(done) <= o.seconds
}

// rep is one timed rep of a workload.
type rep struct {
	wall     time.Duration
	ops      int64     // executions, or checks on crash-judge
	coverage int64     // PM paths, or crash points judged
	rounds   []float64 // closed-loop round latencies in ms
	allocs   uint64    // heap objects allocated by the timed work
	cost     repCost
}

// outcome is one workload's measured result. values holds every metric
// computed, end-to-end and (when traced) per-layer; BENCHMARK.json
// selects which are printed.
type outcome struct {
	workload          string
	reps              int
	attempted, failed int64
	values            map[string]float64
	notes             map[string]string
	spans             *tracer
}

// fold merges another pass of the same work into best, keeping the
// lowest reading of each measure: the fastest pass (its time and
// rounds), and the fewest allocations, the lowest heap and the least GC.
// Programs sharing the host can only slow a pass down, and a slowed pass
// also leaves more garbage live when its collections end, so the lowest
// of several identical passes is the steadiest estimate of the
// program's own cost.
func (best *rep) fold(r rep) {
	if r.wall < best.wall {
		best.wall, best.rounds = r.wall, r.rounds
	}
	best.allocs = min(best.allocs, r.allocs)
	best.cost.heapP95 = min(best.cost.heapP95, r.cost.heapP95)
	best.cost.gcCycles = min(best.cost.gcCycles, r.cost.gcCycles)
	best.cost.gcPause = min(best.cost.gcPause, r.cost.gcPause)
}

// endToEnd reduces a workload's folded reps, one per unit of work (a
// seed's session, or the whole judged corpus), to the end-to-end
// metrics. coverage is the mean over the units.
func endToEnd(best []rep, setup []float64, notes map[string]string) map[string]float64 {
	var wall float64
	var ops, cov int64
	var allocs uint64
	var rounds, heap, gcs, pauses []float64
	for _, r := range best {
		wall += r.wall.Seconds()
		ops += r.ops
		cov += r.coverage
		allocs += r.allocs
		rounds = append(rounds, r.rounds...)
		heap = append(heap, r.cost.heapP95/1e6)
		gcs = append(gcs, float64(r.cost.gcCycles))
		pauses = append(pauses, r.cost.gcPause.Seconds())
	}
	notes["round_p50_ms"] = fmt.Sprintf("n=%d", len(rounds))
	notes["round_p95_ms"] = fmt.Sprintf("n=%d", len(rounds))
	return map[string]float64{
		"ops_per_s":          float64(ops) / wall,
		"coverage_per_s":     float64(cov) / wall,
		"coverage":           float64(cov) / float64(len(best)),
		"round_p50_ms":       quantile(rounds, 0.50),
		"round_p95_ms":       quantile(rounds, 0.95),
		"allocs_per_op":      float64(allocs) / float64(ops),
		"heap_p95_mb":        median(heap),
		"setup_s":            median(setup),
		"runtime.gc_cycles":  median(gcs),
		"runtime.gc_pause_s": median(pauses),
	}
}

// gateError is a failed correctness check: the run prints no metrics.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "correctness gate failed: " + e.msg }

func gateErrorf(format string, a ...any) error { return &gateError{fmt.Sprintf(format, a...)} }

type workload interface {
	run(options) (*outcome, error)
}

func lookup(name string) (workload, bool) {
	if name == "crash-judge" {
		return crashJudge{}, true
	}
	for _, w := range fuzzWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// record is one workload's result in one invocation: the ledger's unit.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Nproc     int               `json:"nproc"`
	Go        string            `json:"go"`
	Reps      int               `json:"reps"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Self      []selfTime        `json:"self,omitempty"`
}

// ledger is a file of records, such as results/seed42.json.
type ledger struct {
	Runs []record `json:"runs"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 42, "workload seed (7 is held out for checking claims)")
	seconds := fs.Float64("seconds", 0, "timed seconds per workload once the minimum passes are done (0 = run_seconds of BENCHMARK.json)")
	traceArg := fs.String("trace", "0", "per-layer pass: 0 off, 1 on with span files in .bench_build/trace, or the directory for the span files")
	quick := fs.Bool("quick", false, "smoke-test sizes: 100 sim-ms sessions, 4 judged cases, 1 rep")
	out := fs.String("out", "", "append this invocation's records to this ledger file")
	compare := fs.Bool("compare", false, "compare ledger files: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		return runCompare(sp, fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}

	o := options{seed: *seed, seconds: *seconds, scale: fullScale}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if *quick {
		o.scale = quickScale
	}
	switch *traceArg {
	case "0", "":
	case "1":
		o.traceDir = ".bench_build/trace"
	default:
		o.traceDir = *traceArg
	}

	var names []string
	for _, w := range sp.Workloads {
		if *name == "all" || *name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	records, err := runAll(o, names, sp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		if errors.As(err, new(*gateError)) {
			return 1
		}
		return 2
	}
	if o.traceDir != "" {
		fmt.Fprintf(stdout, "span files: %s\n", o.traceDir)
	}
	if *out != "" {
		if err := appendLedger(*out, records); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range records {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(records) > 1 {
				k = r.Workload + "/" + k
			}
			res.Metrics[k] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll checks the canary, then runs each workload, printing its
// metrics as it finishes: the end-to-end ones, and with tracing the
// per-layer ones too, which are then the ones recorded. Span files are
// written only once every workload passed the correctness gate.
func runAll(o options, names []string, sp *spec, stdout io.Writer) ([]record, error) {
	if err := canary(); err != nil {
		return nil, err
	}
	want, shown := sp.EndToEnd, sp.EndToEnd
	if o.traceDir != "" {
		want = sp.PerLayer
		shown = sp.metrics()
	}
	var records []record
	var spans []*outcome
	for _, name := range names {
		w, ok := lookup(name)
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not define", name)
		}
		oc, err := w.run(o)
		if err != nil {
			return nil, err
		}
		if _, err := pick(shown, oc.values); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		metrics, _ := pick(want, oc.values) // want is part of shown, checked above
		printOutcome(stdout, o, oc, shown)
		rec := record{
			Workload: name, Seed: o.seed, Trace: o.traceDir != "",
			Nproc: runtime.NumCPU(), Go: runtime.Version(), Reps: oc.reps,
			Correct: true, Attempted: oc.attempted, Failed: oc.failed, Metrics: metrics,
		}
		if oc.spans != nil {
			rec.Self = oc.spans.selfTimes()
			spans = append(spans, oc)
		}
		records = append(records, rec)
	}
	for _, oc := range spans {
		if err := oc.spans.write(o.traceDir, oc.workload, o.seed); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return records, nil
}

func printOutcome(w io.Writer, o options, oc *outcome, want []metricSpec) {
	fmt.Fprintf(w, "== %s  seed=%d  reps=%d  nproc=%d\n", oc.workload, o.seed, oc.reps, runtime.NumCPU())
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range want {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.Name, oc.values[m.Name], m.Unit, oc.notes[m.Name])
	}
	fmt.Fprintf(tw, "  fail_ratio\t%d/%d\t\t%s\n", oc.failed, oc.attempted, oc.notes["fail_ratio"])
	tw.Flush()
}

// appendLedger adds records to the ledger file at path, creating it.
func appendLedger(path string, records []record) error {
	var l ledger
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &l); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	l.Runs = append(l.Runs, records...)
	data, err = json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readLedgers concatenates the runs of ledger files, in argument order.
func readLedgers(paths []string) ([]record, error) {
	var runs []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var l ledger
		if err := json.Unmarshal(data, &l); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, l.Runs...)
	}
	return runs, nil
}
