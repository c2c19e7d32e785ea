// Command pmcheck runs the PM testing tools — the Pmemcheck-analog trace
// checker and the XFDetector-analog cross-failure checker — on one test
// case (a command input plus an optional PM image), the way PMFuzz hands
// generated test cases to the backend tools (Figure 9 step ⑤).
//
// Usage:
//
//	pmcheck -workload btree -input case.input [-image case.img]
//	pmcheck -workload redis -input case.input -xfd -xfd-barriers 50
//	pmcheck -workload hashmap-tx -input case.input -real-bug 1 -xfd
//	pmcheck -workload btree -input case.input -real-bug 2 -oracle
//	pmcheck -workload btree -input case.input -real-bug 2 -invariant
//	pmcheck -workload btree -input case.input -oracle -invariant   (cross-validation)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/invariant"
	"pmfuzz/internal/judge"
	"pmfuzz/internal/oracle"
	"pmfuzz/internal/pmcheck"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads/bugs"
	"pmfuzz/internal/xfd"
)

// hasShadowModel reports whether the differential oracle can judge the
// workload: it needs the workload's state-dump hook and a shadow model
// (the same gates oracle.Check tests before sweeping).
func hasShadowModel(workload string) bool { return oracle.Judgeable(workload) == nil }

// resolveOracles decides which oracle legs actually run. When both the
// differential and the invariant oracle are requested but the workload
// has no shadow model, the differential leg cannot judge anything —
// rather than reporting a skip next to real invariant findings (which
// used to read as a contradictory verdict), fall back to the invariant
// oracle alone and say so on warn. A lone -oracle keeps its existing
// skip-and-report behavior.
func resolveOracles(workload string, oracleOn, invOn bool, warn io.Writer) (bool, bool) {
	if oracleOn && invOn && !hasShadowModel(workload) {
		fmt.Fprintf(warn, "pmcheck: workload %q has no shadow model; differential oracle unavailable, using the invariant oracle only\n", workload)
		return false, true
	}
	return oracleOn, invOn
}

// invariantRepros minimizes the invariant violations into repro
// bundles, one per distinct minimized outcome: neighbouring crash points
// usually shrink to the same repro.
func invariantRepros(ck *invariant.Checker, tc executor.TestCase, set *invariant.Set, vs []*invariant.Violation) []*oracle.Bundle {
	return judge.Distinct(vs, func(v *invariant.Violation) *oracle.Bundle {
		return ck.Minimize(tc, v, set, invariant.Options{PreFence: true})
	})
}

func main() {
	var (
		workload    = flag.String("workload", "btree", "workload to execute")
		inputPath   = flag.String("input", "", "command input file (required)")
		imagePath   = flag.String("image", "", "serialized PM image to start from")
		seed        = flag.Int64("seed", 1, "execution seed")
		synBug      = flag.Int("syn-bug", 0, "enable a synthetic injection point")
		realBug     = flag.Int("real-bug", 0, "enable a real-world bug (1-12)")
		runXFD      = flag.Bool("xfd", false, "also run the cross-failure checker")
		xfdBarriers = flag.Int("xfd-barriers", 50, "cross-failure barrier sweep cap")
		xfdProb     = flag.Float64("xfd-prob", 0, "probabilistic failure rate for the cross-failure sweep")
		runOracle   = flag.Bool("oracle", false, "also run the differential crash-consistency oracle over the barrier sweep")
		runInv      = flag.Bool("invariant", false, "also run the annotation-free invariant oracle: mine likely invariants from the case's own clean trace, then check the barrier sweep against them (with -oracle, cross-validates the two verdicts)")
		noPrune     = flag.Bool("no-prune-sweep", false, "differential and invariant oracles: judge every crash state instead of one representative per equivalence class (-xfd always reuses exact-duplicate crash states, which is lossless)")
		reproOut    = flag.String("repro-out", "", "directory for minimized oracle repro bundles (implies minimization)")
	)
	flag.Parse()

	if *inputPath == "" {
		fmt.Fprintln(os.Stderr, "pmcheck: -input is required")
		os.Exit(2)
	}
	input, err := os.ReadFile(*inputPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmcheck:", err)
		os.Exit(1)
	}
	tc := executor.TestCase{Workload: *workload, Input: input, Seed: *seed}
	if *imagePath != "" {
		raw, err := os.ReadFile(*imagePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmcheck:", err)
			os.Exit(1)
		}
		img, err := pmem.UnmarshalImage(raw)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmcheck:", err)
			os.Exit(1)
		}
		tc.Image = img
	}
	bg := bugs.NewSet()
	if *synBug > 0 {
		bg.EnableSyn(*synBug)
	}
	if *realBug > 0 {
		bg.EnableReal(bugs.RealBug(*realBug))
	}
	tc.Bugs = bg

	findings := 0

	res := executor.Run(tc, executor.Options{RecordTrace: true})
	fmt.Printf("execution: %d commands, %d PM ops, %d ordering points\n",
		res.Commands, res.Ops, res.Barriers)
	if res.Panicked {
		findings++
		fmt.Printf("[fault] program faulted: %v\n", res.PanicVal)
	} else if res.Err != nil {
		findings++
		fmt.Printf("[fault] program reported: %v\n", res.Err)
	}
	if res.Trace != nil {
		reports := pmcheck.Check(res.Trace.Events())
		for _, r := range reports {
			fmt.Println(r)
		}
		findings += len(reports)
		sum := pmcheck.Summary(reports)
		if len(sum) > 0 {
			fmt.Printf("pmemcheck summary: %v\n", sum)
		} else {
			fmt.Println("pmemcheck: clean")
		}
	}

	if *runXFD {
		reports, _ := xfd.Check(tc, *xfdBarriers, *xfdProb, 2, nil)
		for _, r := range reports {
			fmt.Println(r)
		}
		findings += len(reports)
		if len(reports) == 0 {
			fmt.Println("xfdetector: clean")
		}
	}

	oracleOn, invOn := resolveOracles(*workload, *runOracle || *reproOut != "", *runInv, os.Stderr)

	var orep *oracle.Report
	if oracleOn {
		orep = oracle.Check(tc, oracle.Options{
			PreFence: true,
			Minimize: *reproOut != "",
			NoPrune:  *noPrune,
		})
		if orep.Skipped != "" {
			fmt.Printf("oracle: skipped: %s\n", orep.Skipped)
			orep = nil
		} else {
			fmt.Printf("oracle: %d crash images checked over %d barriers\n", orep.Checked, orep.Barriers)
			for _, v := range orep.Violations {
				fmt.Println(v)
			}
			findings += len(orep.Violations)
			if len(orep.Violations) == 0 {
				fmt.Println("oracle: clean")
			}
			for i, b := range orep.Bundles {
				dir := fmt.Sprintf("%s/repro-%03d", *reproOut, i)
				if err := b.Write(dir); err != nil {
					fmt.Fprintln(os.Stderr, "pmcheck: writing repro bundle:", err)
					os.Exit(1)
				}
				fmt.Printf("oracle: repro bundle (input %d -> %d bytes, barrier %d -> %d) written to %s\n",
					b.OrigInputLen, len(b.Input), b.OrigBarrier, b.Barrier, dir)
			}
		}
	}

	var irep *invariant.Report
	if invOn {
		ck := invariant.NewChecker()
		set, err := ck.MineCase(tc, invariant.Options{})
		if err != nil {
			fmt.Printf("invariant: skipped: %v\n", err)
		} else {
			fmt.Printf("invariant: mined %d invariants from the clean trace\n", set.Len())
			irep = ck.Check(tc, set, invariant.Options{PreFence: true, NoPrune: *noPrune})
			if irep.Skipped != "" {
				fmt.Printf("invariant: skipped: %s\n", irep.Skipped)
				irep = nil
			} else {
				fmt.Printf("invariant: %d crash images checked over %d barriers (%d rules dropped by self-validation)\n",
					irep.Checked, irep.Barriers, len(irep.Dropped))
				for _, v := range irep.Violations {
					fmt.Println(v)
				}
				findings += len(irep.Violations)
				if len(irep.Violations) == 0 {
					fmt.Println("invariant: clean")
				}
				if *reproOut != "" {
					for i, b := range invariantRepros(ck, tc, set, irep.Violations) {
						dir := fmt.Sprintf("%s/inv-repro-%03d", *reproOut, i)
						if err := b.Write(dir); err != nil {
							fmt.Fprintln(os.Stderr, "pmcheck: writing repro bundle:", err)
							os.Exit(1)
						}
						fmt.Printf("invariant: repro bundle (input %d -> %d bytes, barrier %d -> %d) written to %s\n",
							b.OrigInputLen, len(b.Input), b.OrigBarrier, b.Barrier, dir)
					}
				}
			}
		}
	}

	// Cross-validation: with both oracles' reports in hand, join their
	// verdicts crash point by crash point.
	if orep != nil && irep != nil {
		agr := invariant.Agree(orep, irep)
		fmt.Printf("cross-oracle: %s\n", agr)
		for _, d := range agr.OracleOnly {
			fmt.Printf("cross-oracle: oracle only: %s\n", d)
		}
		for _, d := range agr.InvariantOnly {
			fmt.Printf("cross-oracle: invariant only: %s\n", d)
		}
	}

	if findings > 0 {
		os.Exit(1)
	}
}
