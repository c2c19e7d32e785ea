// Command pmfuzz runs the PMFuzz test-case generator (or one of the
// paper's comparison configurations) against a PM workload, or
// regenerates one of the paper's evaluation artifacts.
//
// Usage:
//
//	pmfuzz -workload btree -config pmfuzz -budget-ms 500
//	pmfuzz -workload btree -workers 4 -budget-ms 500
//	pmfuzz -workload btree -sync-dir /tmp/fleet -fuzzer-id f1 -seed 1
//	pmfuzz -workload btree -budget-ms 500 -checkpoint ck.json -checkpoint-at-ms 200
//	pmfuzz -resume ck.json
//	pmfuzz -experiment fig13 -budget-ms 400
//	pmfuzz -experiment table3 -workloads skiplist,btree -budget-ms 120
//	pmfuzz -experiment realbugs -budget-ms 500
//	pmfuzz -list
//
// Generated test cases (command inputs plus serialized PM images) can be
// exported with -out for replay by cmd/pmcheck or cmd/mapcli.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"time"

	"pmfuzz/internal/campaign"
	"pmfuzz/internal/core"
	"pmfuzz/internal/experiments"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// The CLI surface, grouped the way -h renders it (see flagGroups).
// Flags live at package scope so the usage audit test can verify every
// one of them is documented in exactly one group.
var (
	// Session.
	workload = flag.String("workload", "btree", "workload to fuzz (see -list)")
	config   = flag.String("config", "pmfuzz", "comparison point: pmfuzz, pmfuzz-no-sysopt, afl++, afl++-sysopt, afl++-imgfuzz")
	budgetMS = flag.Int64("budget-ms", 500, "simulated-time budget in milliseconds")
	seed     = flag.Int64("seed", 1, "session seed (identical seeds replay identically)")
	workers  = flag.Int("workers", 1, "fuzzing workers: 1 = a single instance (a fleet of one), 0 = one per CPU, N = an N-instance fleet (deterministic per seed+workers)")
	list     = flag.Bool("list", false, "list workloads and configurations, then exit")

	// Two-stage pipeline (the original tool's --cores-stage1/--cores-stage2).
	coresStage2   = flag.Int("cores-stage2", 0, "per-sub-campaign core budget; > 0 enables stage 2, which fuzzes inputs from promoted crash images' recovered state")
	stage2Budget  = flag.Int64("stage2-budget-ms", 0, "simulated-time budget of one stage-2 sub-campaign in milliseconds (0 = budget-ms/4)")
	stage2MaxCamp = flag.Int("stage2-max-campaigns", 0, "cap on stage-2 sub-campaigns per session (0 = 4)")
	trackRecovery = flag.Bool("track-recovery", false, "account recovery-path PM coverage for crash-image executions (read-only; implied by -cores-stage2)")

	// Distributed fleet & resume.
	syncDir   = flag.String("sync-dir", "", "shared corpus sync directory for a multi-process fleet; each member publishes discoveries there and imports every peer's (AFL -M/-S style)")
	fuzzerID  = flag.String("fuzzer-id", "", "this fleet member's unique name under -sync-dir (default f<pid>)")
	syncEvery = flag.Duration("sync-every", time.Second, "wall-clock cadence of the background corpus sync (off the simulated clock)")
	ckptOut   = flag.String("checkpoint", "", "write a whole-session checkpoint to this file; the run stops at -checkpoint-at-ms and a later -resume continues its exact trajectory")
	ckptAtMS  = flag.Int64("checkpoint-at-ms", 0, "simulated instant to checkpoint at, in milliseconds (requires -checkpoint; the session keeps its full -budget-ms)")
	resumeIn  = flag.String("resume", "", "resume from a checkpoint file (restores workload, seed, corpus, RNG, clock, and bug flags; -budget-ms may raise the horizon)")

	// Bug injection.
	synBug  = flag.Int("syn-bug", 0, "enable a synthetic injection point by ID")
	realBug = flag.Int("real-bug", 0, "enable a real-world bug (1-12, section 5.4)")

	// Corpus I/O.
	outDir    = flag.String("out", "", "export generated test cases to this directory (two-stage corpora use stage=N,iter=M subdirectories)")
	inDir     = flag.String("in", "", "import a previously exported corpus (flat or staged layout) as extra seeds")
	seriesOut = flag.String("series-out", "", "write the coverage time series as JSON (for plotting Figure 13)")
	showTree  = flag.Bool("show-tree", false, "print the test-case tree (Figure 12)")

	// Experiments.
	experiment = flag.String("experiment", "", "regenerate a paper artifact: fig13, table3, realbugs")
	workloadsF = flag.String("workloads", "", "comma-separated workload subset for experiments (default: all eight)")

	// Observability.
	statusEvery = flag.Duration("status-every", 0, "print an AFL-style status line to stderr at this wall-clock interval (0 = off)")
	traceOut    = flag.String("trace-out", "", "write a JSONL event trace (sim-time stamps; stage_enter/stage_exit events for two-stage sessions) to this file")
	statsAddr   = flag.String("stats-addr", "", "serve live metrics over HTTP (expvar at /debug/vars, Prometheus text at /metrics); use :0 for an ephemeral port")

	// Crash-consistency oracle.
	oracleCheck = flag.Bool("oracle", false, "run the differential crash-consistency oracle on favored test cases (off the simulated clock)")
	invCheck    = flag.Bool("invariant", false, "run the annotation-free invariant oracle: mine likely crash-consistency invariants from the first favored test cases' PM-op traces, then check later crash images against them (off the simulated clock; needs no shadow model)")
	reproOut    = flag.String("repro-out", "", "directory for minimized oracle repro bundles (implies -oracle)")
	noPrune     = flag.Bool("no-prune-sweep", false, "judge every crash state individually instead of one representative per behavioral equivalence class (the default; any violating representative triggers a full per-member pass, so the reported violations are identical either way)")

	// Profiling.
	cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the session to this file")
	memProfile = flag.String("memprofile", "", "write a pprof heap profile at session end to this file")
)

// flagGroups orders -h output; every registered flag belongs to exactly
// one group (TestUsageCoversAllFlags pins this).
var flagGroups = []struct {
	title string
	names []string
}{
	{"Session", []string{"workload", "config", "budget-ms", "seed", "workers", "list"}},
	{"Two-stage pipeline (maps to the original tool's --cores-stage1/--cores-stage2)",
		[]string{"cores-stage2", "stage2-budget-ms", "stage2-max-campaigns", "track-recovery"}},
	{"Distributed fleet & resume", []string{"sync-dir", "fuzzer-id", "sync-every", "checkpoint", "checkpoint-at-ms", "resume"}},
	{"Bug injection", []string{"syn-bug", "real-bug"}},
	{"Corpus I/O", []string{"out", "in", "series-out", "show-tree"}},
	{"Experiments (paper artifacts)", []string{"experiment", "workloads"}},
	{"Observability", []string{"status-every", "trace-out", "stats-addr"}},
	{"Crash-consistency oracle", []string{"oracle", "invariant", "repro-out", "no-prune-sweep"}},
	{"Profiling", []string{"cpuprofile", "memprofile"}},
}

// usage renders the grouped help text.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "Usage: pmfuzz [flags]\n\n")
	fmt.Fprintf(w, "Fuzz a persistent-memory workload (or regenerate a paper artifact).\n\n")
	for _, g := range flagGroups {
		fmt.Fprintf(w, "%s:\n", g.title)
		for _, n := range g.names {
			fl := flag.Lookup(n)
			if fl == nil {
				continue
			}
			arg, help := flag.UnquoteUsage(fl)
			fmt.Fprintf(w, "  -%s", fl.Name)
			if arg != "" {
				fmt.Fprintf(w, " %s", arg)
			}
			fmt.Fprintf(w, "\n    \t%s", help)
			if fl.DefValue != "" && fl.DefValue != "false" && fl.DefValue != "0" && fl.DefValue != "0s" {
				fmt.Fprintf(w, " (default %s)", fl.DefValue)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pmfuzz: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pmfuzz: memprofile:", err)
			}
		}()
	}

	if *list {
		fmt.Println("workloads:")
		for _, n := range workloads.Names() {
			prog, err := workloads.New(n)
			if err != nil {
				fmt.Printf("  %-16s unavailable: %v\n", n, err)
				continue
			}
			fmt.Printf("  %-16s %d synthetic injection points\n", n, len(prog.SynPoints()))
		}
		fmt.Println("configurations (Table 2):")
		for _, c := range core.ConfigNames() {
			f, _ := core.FeaturesFor(c)
			fmt.Printf("  %-18s input=%v img-indirect=%v img-direct=%v pmpath=%v sysopt=%v\n",
				c, f.InputFuzz, f.ImgFuzzIndirect, f.ImgFuzzDirect, f.PMPathOpt, f.SysOpt)
		}
		return
	}

	budget := *budgetMS * 1_000_000
	if *experiment != "" {
		if err := runExperiment(*experiment, *workloadsF, budget, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz:", err)
			os.Exit(1)
		}
		return
	}

	var cfg core.Config
	bg := bugs.NewSet()
	var resumeEnv *checkpointEnvelope
	if *resumeIn != "" {
		if *inDir != "" {
			fmt.Fprintln(os.Stderr, "pmfuzz: -in cannot be combined with -resume (the checkpoint already carries the corpus)")
			os.Exit(1)
		}
		raw, err := os.ReadFile(*resumeIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: resume:", err)
			os.Exit(1)
		}
		var env checkpointEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			fmt.Fprintf(os.Stderr, "pmfuzz: resume: %s: %v\n", *resumeIn, err)
			os.Exit(1)
		}
		cfg, err = core.PeekCheckpointConfig(env.Core)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: resume:", err)
			os.Exit(1)
		}
		resumeEnv = &env
		// The checkpoint's bug flags and session parameters replace the
		// CLI's; only an explicit -budget-ms raises the horizon.
		*synBug, *realBug = env.SynBug, env.RealBug
		budgetSet := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "budget-ms" {
				budgetSet = true
			}
		})
		if budgetSet {
			cfg.BudgetNS = budget
		}
		*workload, *seed, *workers = cfg.Workload, cfg.Seed, cfg.Workers
		budget = cfg.BudgetNS
	} else {
		var err error
		cfg, err = core.DefaultConfig(*workload, core.ConfigName(*config), budget, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz:", err)
			os.Exit(1)
		}
		if *workers <= 0 {
			// Resolve "one per CPU" here so the session header reports the
			// actual fleet size rather than the raw flag value.
			*workers = runtime.GOMAXPROCS(0)
		}
		cfg.Workers = *workers
		cfg.OracleCheck = *oracleCheck || *reproOut != ""
		cfg.InvariantCheck = *invCheck
		cfg.Stage2Workers = *coresStage2
		cfg.Stage2BudgetNS = *stage2Budget * 1_000_000
		cfg.Stage2MaxCampaigns = *stage2MaxCamp
		cfg.TrackRecovery = *trackRecovery
		cfg.NoPruneSweep = *noPrune
	}
	if *synBug > 0 {
		bg.EnableSyn(*synBug)
	}
	if *realBug > 0 {
		bg.EnableReal(bugs.RealBug(*realBug))
	}
	if (*ckptOut == "") != (*ckptAtMS <= 0) {
		fmt.Fprintln(os.Stderr, "pmfuzz: -checkpoint and -checkpoint-at-ms must be used together")
		os.Exit(1)
	}
	fuzzer, err := core.New(cfg, bg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmfuzz:", err)
		os.Exit(1)
	}
	if resumeEnv != nil {
		if err := fuzzer.RestoreCheckpoint(resumeEnv.Core); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: resume:", err)
			os.Exit(1)
		}
		fmt.Printf("resumed from %s\n", *resumeIn)
	}
	if *ckptOut != "" {
		if err := fuzzer.EnableCheckpoint(*ckptAtMS * 1_000_000); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: checkpoint:", err)
			os.Exit(1)
		}
	}
	if *inDir != "" {
		n, err := importCorpus(fuzzer, *inDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: import:", err)
			os.Exit(1)
		}
		fmt.Printf("imported %d test cases from %s\n", n, *inDir)
	}
	var tele *obs.Session
	if *statusEvery > 0 || *traceOut != "" || *statsAddr != "" {
		tele, err = obs.NewSession(obs.Config{
			Workload:    *workload,
			FuzzConfig:  *config,
			Workers:     *workers,
			Seed:        *seed,
			BudgetNS:    budget,
			StatusEvery: *statusEvery,
			OutDir:      *outDir,
			TracePath:   *traceOut,
			HTTPAddr:    *statsAddr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: telemetry:", err)
			os.Exit(1)
		}
		if err := tele.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: telemetry:", err)
			os.Exit(1)
		}
		if *statsAddr != "" {
			fmt.Fprintf(os.Stderr, "pmfuzz: serving stats at http://%s/debug/vars and /metrics\n", tele.Addr())
		}
		fuzzer.SetTelemetry(tele)
	}
	var syncer *campaign.Syncer
	if *syncDir != "" {
		id := *fuzzerID
		if id == "" {
			id = fmt.Sprintf("f%d", os.Getpid())
		}
		syncer, err = campaign.New(campaign.Config{Dir: *syncDir, FuzzerID: id, Every: *syncEvery}, fuzzer, tele)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz:", err)
			os.Exit(1)
		}
		fuzzer.SetSyncHook(syncer.Hook())
		// Barrier sync before the run so a late joiner starts from the
		// fleet's corpus instead of rediscovering it.
		syncer.SyncNow()
		syncer.Start()
	}
	res := fuzzer.Run()
	if syncer != nil {
		syncer.Stop()
		// Final barrier so the last discoveries reach the fleet even if
		// the ticker never fired again.
		syncer.SyncNow()
	}
	if tele != nil {
		if err := tele.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: telemetry:", err)
		}
	}
	if *ckptOut != "" {
		blob, err := fuzzer.SaveCheckpoint()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: checkpoint:", err)
			os.Exit(1)
		}
		env, err := json.Marshal(checkpointEnvelope{SynBug: *synBug, RealBug: *realBug, Core: blob})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: checkpoint:", err)
			os.Exit(1)
		}
		tmp := *ckptOut + ".tmp"
		if err := os.WriteFile(tmp, env, 0o644); err == nil {
			err = os.Rename(tmp, *ckptOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint:     %s at %.2f ms (resume with -resume %s)\n",
			*ckptOut, float64(res.SimNS)/1e6, *ckptOut)
	}
	printSession(res)
	if syncer != nil {
		st := syncer.Stats()
		fmt.Printf("sync:           published %d, imported %d (%d dedup), errors %d, bytes out/in %d/%d\n",
			st.Published, st.Imported, st.Dedup, st.Errors, st.BytesOut, st.BytesIn)
	}
	if tele != nil {
		printStages(os.Stdout, tele.M.Snapshot())
	}
	if *showTree {
		printTree(res)
	}
	if *seriesOut != "" {
		if err := writeSeries(res, *seriesOut); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: series:", err)
			os.Exit(1)
		}
	}
	if *outDir != "" {
		if err := export(res, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "pmfuzz: export:", err)
			os.Exit(1)
		}
		if res.InvariantSet != nil {
			path := filepath.Join(*outDir, campaign.InvariantFile)
			if err := os.WriteFile(path, res.InvariantSet.Marshal(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "pmfuzz: invariants:", err)
				os.Exit(1)
			}
			fmt.Printf("exported %d mined invariants to %s\n", res.InvariantSet.Len(), path)
		}
	}
	if *reproOut != "" {
		for i, b := range res.Repros {
			dir := filepath.Join(*reproOut, fmt.Sprintf("repro-%03d", i))
			if err := b.Write(dir); err != nil {
				fmt.Fprintln(os.Stderr, "pmfuzz: repro bundle:", err)
				os.Exit(1)
			}
			src := "oracle"
			if b.Invariant != "" {
				src = "invariant"
			}
			fmt.Printf("%s repro %d: %s at barrier %d (input %d -> %d bytes) -> %s\n",
				src, i, b.Kind, b.Barrier, b.OrigInputLen, len(b.Input), dir)
		}
		if len(res.Repros) == 0 {
			fmt.Println("oracle: no violations; no repro bundles written")
		}
	}
}

// writeSeries dumps the coverage time series as JSON.
func writeSeries(res *core.Result, path string) error {
	data, err := json.MarshalIndent(res.Series, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printTree renders the test-case tree of Figure 12: nodes are PM
// images, edges the inputs that produced them. Large corpora are
// truncated per level.
func printTree(res *core.Result) {
	fmt.Println("\ntest-case tree (Figure 12; images as nodes):")
	const maxChildren = 6
	var walk func(id, depth int)
	walk = func(id, depth int) {
		e := res.Queue.Get(id)
		if e == nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		kind := "input"
		if e.IsCrashImage {
			kind = "crash-image"
		} else if e.HasImage {
			kind = "image"
		}
		label := strings.TrimSpace(strings.ReplaceAll(string(e.Input), "\n", "; "))
		if len(label) > 48 {
			label = label[:48] + "..."
		}
		fmt.Printf("%s#%d [%s] %q\n", indent, e.ID, kind, label)
		kids := res.Queue.Children(e.ID)
		for i, k := range kids {
			if i >= maxChildren {
				fmt.Printf("%s  ... %d more\n", indent, len(kids)-maxChildren)
				break
			}
			walk(k, depth+1)
		}
	}
	shown := 0
	for _, e := range res.Queue.Entries() {
		if e.ParentID == -1 {
			walk(e.ID, 0)
			shown++
			if shown >= 4 {
				break
			}
		}
	}
}

func runExperiment(name, workloadList string, budget, seed int64) error {
	var wls []string
	if workloadList != "" {
		wls = strings.Split(workloadList, ",")
	}
	// Experiments are long sweeps of sessions; narrate each phase on
	// stderr so the eventual table on stdout stays clean.
	progress := experiments.Progress(func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "pmfuzz: "+format+"\n", args...)
	})
	switch name {
	case "fig13":
		res, err := experiments.Fig13(wls, budget, seed, progress)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "table3":
		res, err := experiments.Table3(wls, budget, seed, experiments.DefaultDetect(), progress)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	case "realbugs":
		res, err := experiments.RealBugs(budget, seed, experiments.DefaultDetect(), progress)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	default:
		return fmt.Errorf("unknown experiment %q (want fig13, table3, realbugs)", name)
	}
	return nil
}

func printSession(res *core.Result) { printSessionTo(os.Stdout, res) }

func printSessionTo(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "workload:       %s\n", res.Config.Workload)
	fmt.Fprintf(w, "features:       %+v\n", res.Config.Features)
	if res.Config.Workers != 1 {
		fmt.Fprintf(w, "workers:        %d (merged fleet; time axis is the max over worker clocks)\n", res.Config.Workers)
	}
	fmt.Fprintf(w, "simulated time: %.2f ms (budget %.2f ms)\n",
		float64(res.SimNS)/1e6, float64(res.Config.BudgetNS)/1e6)
	fmt.Fprintf(w, "executions:     %d\n", res.Execs)
	fmt.Fprintf(w, "PM paths:       %d\n", res.PMPaths)
	fmt.Fprintf(w, "queue entries:  %d\n", res.Queue.Len())
	st := res.Store.Stats()
	fmt.Fprintf(w, "images:         %d stored (%d dedup hits, %.1fx compression)\n",
		res.Store.Len(), st.Dedups, res.Store.CompressionRatio())
	crash := 0
	for _, e := range res.Queue.Entries() {
		if e.IsCrashImage {
			crash++
		}
	}
	fmt.Fprintf(w, "crash images:   %d\n", crash)
	if res.Config.Stage2Workers > 0 {
		fmt.Fprintf(w, "stage 2:        %d campaigns, %d execs, %d recovery coverage states\n",
			res.Stage2Campaigns, res.Stage2Execs, res.RecoverySites)
	}
	if res.Config.InvariantCheck {
		if res.InvariantSet != nil {
			fmt.Fprintf(w, "invariants:     %d mined, %d checks, %d violations, %d dropped\n",
				res.InvariantSet.Len(), res.InvariantChecks, res.InvariantViolations, res.InvariantsDropped)
		} else {
			fmt.Fprintln(w, "invariants:     mining incomplete (too few clean favored cases)")
		}
	}
	if len(res.Faults) > 0 {
		fmt.Fprintf(w, "faults (%d):\n", len(res.Faults))
		for _, f := range res.Faults {
			fmt.Fprintf(w, "  @%.2f ms: %s\n", float64(f.SimNS)/1e6, f.Msg)
		}
	} else {
		fmt.Fprintln(w, "faults:         none")
	}
}

// printStages renders the telemetry registry's per-stage wall-time
// breakdown after the session summary.
func printStages(w io.Writer, snap obs.Snapshot) {
	var rows []obs.StageSnap
	for _, st := range snap.Stages {
		if st.Ops > 0 {
			rows = append(rows, st)
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].NS > rows[j].NS })
	fmt.Fprintln(w, "stage breakdown (wall time):")
	for _, r := range rows {
		avg := float64(r.NS) / float64(r.Ops)
		fmt.Fprintf(w, "  %-13s %8d ops  %8.2f ms  %8.1f us/op\n",
			r.Name, r.Ops, float64(r.NS)/1e6, avg/1e3)
	}
}

// checkpointEnvelope wraps the core checkpoint blob with the CLI-level
// session state the engine does not own: the bug-injection flags.
// Resume restores them so the resumed session detects the same bugs the
// checkpointed one was hunting.
type checkpointEnvelope struct {
	SynBug  int             `json:"syn_bug,omitempty"`
	RealBug int             `json:"real_bug,omitempty"`
	Core    json.RawMessage `json:"core"`
}

// caseMeta is the case-*.meta.json sidecar: the scheduling identity an
// exported entry needs to survive an export→import roundtrip. Without
// it, crash images re-import as ordinary seeds and the test-case tree
// loses its edges.
type caseMeta struct {
	ID           int   `json:"id"`
	ParentID     int   `json:"parent_id"`
	IsCrashImage bool  `json:"is_crash_image"`
	Favored      int   `json:"favored"`
	Depth        int   `json:"depth"`
	NewBranch    bool  `json:"new_branch"`
	NewPM        bool  `json:"new_pm"`
	FoundSimNS   int64 `json:"found_sim_ns"`
	// Stage/Iter locate the entry in the two-stage corpus layout
	// (stage=2,iter=N directories); zero for single-stage sessions.
	Stage int `json:"stage,omitempty"`
	Iter  int `json:"iter,omitempty"`
}

// importCorpus loads case-*.input (+ optional case-*.img and
// case-*.meta.json) triples written by export and seeds the fuzzer with
// them. Sidecar parent IDs are remapped from the exported ID space to
// the importing queue's IDs; a parent that wasn't part of the import
// becomes a root (-1).
func importCorpus(f *core.Fuzzer, dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "case-*.input"))
	if err != nil {
		return 0, err
	}
	// Two-stage corpora live in stage=N,iter=M subdirectories.
	staged, err := filepath.Glob(filepath.Join(dir, "stage=*", "case-*.input"))
	if err != nil {
		return 0, err
	}
	matches = append(matches, staged...)
	// Zero-padded names: base-name order == exported ID order, parents
	// before children — regardless of which stage directory a case is in.
	sort.Slice(matches, func(i, j int) bool {
		return filepath.Base(matches[i]) < filepath.Base(matches[j])
	})
	idMap := make(map[int]int, len(matches))
	n := 0
	for _, path := range matches {
		input, err := os.ReadFile(path)
		if err != nil {
			return n, err
		}
		base := strings.TrimSuffix(path, ".input")
		var img *pmem.Image
		if raw, err := os.ReadFile(base + ".img"); err == nil {
			img, err = pmem.UnmarshalImage(raw)
			if err != nil {
				return n, fmt.Errorf("%s: %w", base+".img", err)
			}
		}
		var meta *core.SeedMeta
		oldID := -1
		if raw, err := os.ReadFile(base + ".meta.json"); err == nil {
			var cm caseMeta
			if err := json.Unmarshal(raw, &cm); err != nil {
				// A corrupt or truncated sidecar downgrades the case to a
				// plain seed input instead of aborting the whole import —
				// one bad file must not block the rest of the corpus.
				fmt.Fprintf(os.Stderr, "pmfuzz: import: %s: %v (importing as seed input without metadata)\n",
					base+".meta.json", err)
			} else {
				oldID = cm.ID
				parent := -1
				if p, ok := idMap[cm.ParentID]; ok {
					parent = p
				}
				meta = &core.SeedMeta{
					ParentID:     parent,
					IsCrashImage: cm.IsCrashImage,
					Favored:      cm.Favored,
					Depth:        cm.Depth,
					NewBranch:    cm.NewBranch,
					NewPM:        cm.NewPM,
					Stage:        cm.Stage,
					Iter:         cm.Iter,
					FoundSimNS:   cm.FoundSimNS,
				}
			}
		}
		newID, err := f.AddSeedMeta(input, img, meta)
		if err != nil {
			return n, err
		}
		if oldID >= 0 {
			idMap[oldID] = newID
		}
		n++
	}
	return n, nil
}

// export writes each queue entry as <id>.input (command bytes), a
// <id>.meta.json scheduling sidecar, and, when the entry carries an
// image, <id>.img (serialized pool image).
//
// Single-stage corpora export flat (compatible with every pre-two-stage
// consumer). When the session ran stage 2, entries split into the
// original tool's per-stage iteration directories: stage=1,iter=0/ for
// the stage-1 corpus and stage=2,iter=N/ for each promotion round's
// sub-campaign output.
func export(res *core.Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	staged := false
	for _, e := range res.Queue.Entries() {
		if e.Stage == 2 && e.Iter > 0 {
			staged = true
			break
		}
	}
	made := map[string]bool{}
	for _, e := range res.Queue.Entries() {
		d := dir
		if staged {
			sub := "stage=1,iter=0"
			if e.Stage == 2 && e.Iter > 0 {
				sub = fmt.Sprintf("stage=2,iter=%d", e.Iter)
			}
			d = filepath.Join(dir, sub)
			if !made[d] {
				if err := os.MkdirAll(d, 0o755); err != nil {
					return err
				}
				made[d] = true
			}
		}
		base := filepath.Join(d, fmt.Sprintf("case-%05d", e.ID))
		if err := os.WriteFile(base+".input", e.Input, 0o644); err != nil {
			return err
		}
		meta, err := json.MarshalIndent(caseMeta{
			ID:           e.ID,
			ParentID:     e.ParentID,
			IsCrashImage: e.IsCrashImage,
			Favored:      e.Favored,
			Depth:        e.Depth,
			NewBranch:    e.NewBranch,
			NewPM:        e.NewPM,
			FoundSimNS:   e.FoundSimNS,
			Stage:        e.Stage,
			Iter:         e.Iter,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+".meta.json", meta, 0o644); err != nil {
			return err
		}
		if e.HasImage {
			img, err := res.Store.Get(e.ImageID, nil)
			if err != nil {
				return err
			}
			if err := os.WriteFile(base+".img", img.Marshal(), 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Printf("exported %d test cases to %s\n", res.Queue.Len(), dir)
	return nil
}
