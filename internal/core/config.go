// Package core implements PMFuzz: the test-case generator for persistent
// memory programs described in the paper. A test case is a command input
// plus a PM image (normal or crash image); the fuzzer generates new test
// cases by mutating inputs, reusing program logic to mutate images
// indirectly (§3.1), injecting failures at ordering points to produce
// crash images (§3.2), and prioritizing test cases that cover new PM
// paths (§3.3, Algorithms 1–2). The same engine also runs the paper's
// comparison points (Table 2) by toggling features.
package core

import (
	"fmt"

	"pmfuzz/internal/workloads"
)

// Features are Table 2's four feature columns.
type Features struct {
	// InputFuzz mutates the input commands.
	InputFuzz bool
	// ImgFuzzIndirect generates PM images by executing inputs on
	// existing images (PMFuzz's indirect mutation).
	ImgFuzzIndirect bool
	// ImgFuzzDirect mutates PM image bytes directly (AFL++ w/ ImgFuzz).
	ImgFuzzDirect bool
	// PMPathOpt enables the PM-path coverage feedback of Algorithm 2.
	PMPathOpt bool
	// SysOpt enables the system-level optimizations of §4.7 (fork-server
	// style image caching and cheap re-opens).
	SysOpt bool
}

// ConfigName identifies a Table 2 comparison point.
type ConfigName string

// The five comparison points of Table 2.
const (
	PMFuzzAll      ConfigName = "pmfuzz"
	PMFuzzNoSysOpt ConfigName = "pmfuzz-no-sysopt"
	AFLPlusPlus    ConfigName = "afl++"
	AFLSysOpt      ConfigName = "afl++-sysopt"
	AFLImgFuzz     ConfigName = "afl++-imgfuzz"
)

// ConfigNames lists the comparison points in Table 2 order.
func ConfigNames() []ConfigName {
	return []ConfigName{PMFuzzAll, PMFuzzNoSysOpt, AFLPlusPlus, AFLSysOpt, AFLImgFuzz}
}

// FeaturesFor returns the feature matrix row for a comparison point.
func FeaturesFor(name ConfigName) (Features, error) {
	switch name {
	case PMFuzzAll:
		return Features{InputFuzz: true, ImgFuzzIndirect: true, PMPathOpt: true, SysOpt: true}, nil
	case PMFuzzNoSysOpt:
		return Features{InputFuzz: true, ImgFuzzIndirect: true, PMPathOpt: true}, nil
	case AFLPlusPlus:
		return Features{InputFuzz: true}, nil
	case AFLSysOpt:
		return Features{InputFuzz: true, SysOpt: true}, nil
	case AFLImgFuzz:
		return Features{ImgFuzzDirect: true}, nil
	default:
		return Features{}, fmt.Errorf("core: unknown config %q", name)
	}
}

// Config parameterizes one fuzzing session.
type Config struct {
	// Workload is the registered program name.
	Workload string
	// Seed drives every random decision; identical configs replay
	// identically (§4.4's derandomization requirement).
	Seed int64
	// Features toggles the Table 2 columns.
	Features Features
	// BudgetNS is the simulated-time budget; the session stops when the
	// shared clock passes it (the equal-wall-clock comparison of Fig 13).
	BudgetNS int64
	// MaxBarrierImages caps the per-test-case barrier sweep for crash
	// image generation (0 = no crash images).
	MaxBarrierImages int
	// ProbFailRate is the probabilistic failure-injection rate of §3.2;
	// ProbFailSeeds is how many probabilistic placements to try per test
	// case.
	ProbFailRate  float64
	ProbFailSeeds int
	// ImageCacheCap is the decompressed-image cache size used when
	// SysOpt is on.
	ImageCacheCap int
	// SampleEveryExecs sets the coverage time-series sampling interval.
	SampleEveryExecs int
	// MaxCommands caps command lines per execution (0 = default).
	MaxCommands int
	// OracleCheck runs the differential crash-consistency oracle
	// (internal/oracle) on favored new-PM-path entries after image
	// harvest: every crash image of the entry's barrier sweep must
	// recover to a state the workload's shadow model explains.
	// Violations are recorded as faults and minimized into repro bundles
	// (Result.Repros). The oracle's replays run off the simulated clock
	// on private arenas, so enabling it never changes the session's
	// trajectory, coverage, or image stream. Default off.
	OracleCheck bool
	// OracleMaxChecks caps oracle sweeps per session (0 = default cap);
	// each check costs one journaled re-execution plus one recovery per
	// ordering point.
	OracleMaxChecks int
	// InvariantCheck runs the annotation-free invariant oracle
	// (internal/invariant) beside the fuzzing loop: the first few
	// favored new-PM-path entries are mined for likely ordering,
	// atomicity, and at-rest value invariants, the mined set is frozen,
	// and subsequent entries' crash images are judged against it.
	// Violations flow through the same fault/minimizer/repro pipeline as
	// the differential oracle. Needs no shadow model, so it covers
	// workloads OracleCheck cannot. Like the oracle, it runs off the
	// simulated clock on private arenas and never changes the session's
	// trajectory. Default off.
	InvariantCheck bool
	// InvariantMaxChecks caps invariant sweeps per session (0 = default
	// cap).
	InvariantMaxChecks int
	// Workers is the number of fuzzing workers — the in-process analog
	// of the master/secondary AFL fleet the paper runs (§5.1). Each
	// worker owns a private coverage shard, mutator, image cache, and
	// simulated clock; a coordinator merges their results. 0 selects
	// runtime.GOMAXPROCS(0); Workers=1 is a fleet of one, running the
	// same coordinator and worker code. Any fixed (Seed, Workers) pair
	// replays identically.
	Workers int

	// The two-stage pipeline (the original tool's
	// --cores-stage1/--cores-stage2 split): stage 1 fuzzes command
	// inputs and generates crash images; a promotion policy then selects
	// the interesting crash images (novel PM-path admits, oracle-flagged
	// entries) and stage 2 spawns per-image sub-campaigns that fuzz
	// command inputs from the *recovered* image as the start state.
	//
	// Stage1Workers is stage 1's core budget (0 = Workers).
	// Stage2Workers is each sub-campaign's core budget; > 0 enables the
	// pipeline, 0 (the default) disables stage 2 entirely and reproduces
	// the single-stage trajectory byte-for-byte. Each sub-campaign runs
	// on the same lease engine as stage 1, whatever its worker count.
	// With stage 2 on, a session is deterministic per
	// (Seed, Workers, Stage1Workers, Stage2Workers, Stage2BudgetNS).
	Stage1Workers int
	Stage2Workers int
	// Stage2BudgetNS is the simulated-time budget of one stage-2
	// sub-campaign (0 = BudgetNS/4). Sub-campaigns extend the session's
	// time axis past BudgetNS: stage 1 runs [0, BudgetNS), campaign k
	// runs from the previous campaign's end.
	Stage2BudgetNS int64
	// Stage2MaxCampaigns caps sub-campaigns per session (0 = 4).
	Stage2MaxCampaigns int
	// NoPruneSweep disables representative-state sweep pruning. With
	// pruning on (the default), the differential oracle judges one
	// representative crash state per behavioral equivalence class
	// (falling back to full per-member checks on any violation, so the
	// reported violation set is identical either way), and stage-2
	// promotion dedups crash-image candidates by class. Disabling it
	// restores strictly per-point checking.
	NoPruneSweep bool
	// TrackRecovery accounts recovery-path PM coverage: every execution
	// that opens a crash image records the PM sites its setup phase
	// (pool open, transaction recovery, workload recovery hooks)
	// touched, merged into Result.Recovery. Forced on when stage 2 is
	// enabled. The accounting is off-clock and never changes the
	// trajectory.
	TrackRecovery bool
}

// twoStage reports whether the stage-2 pipeline is enabled.
func (c Config) twoStage() bool { return c.Stage2Workers > 0 }

// stage1Workers resolves stage 1's core budget.
func (c Config) stage1Workers() int {
	if c.Stage1Workers > 0 {
		return c.Stage1Workers
	}
	return c.Workers
}

// DefaultConfig returns a ready-to-run configuration for the comparison
// point, with the defaults the experiments use.
func DefaultConfig(workload string, name ConfigName, budgetNS int64, seed int64) (Config, error) {
	feats, err := FeaturesFor(name)
	if err != nil {
		return Config{}, err
	}
	if _, err := workloads.New(workload); err != nil {
		return Config{}, err
	}
	cfg := Config{
		Workload:         workload,
		Seed:             seed,
		Features:         feats,
		BudgetNS:         budgetNS,
		ImageCacheCap:    64,
		SampleEveryExecs: 20,
		// Each execution is short (the paper caps executions at 150 ms,
		// §4.6): deep persistent states are reached by accumulating
		// across images, not within one run. This is what makes image
		// generation matter.
		MaxCommands: 12,
		// The paper's artifacts (Figure 13, Table 3, §5.4) are
		// single-instance trajectories, so experiment configs default to
		// one worker; callers opt into the fleet with Config.Workers or
		// the -workers flag.
		Workers: 1,
	}
	if feats.ImgFuzzIndirect {
		cfg.MaxBarrierImages = 4
		cfg.ProbFailRate = 0.0005
		cfg.ProbFailSeeds = 1
	}
	return cfg, nil
}
