// Package executor runs one PM-program execution under full
// observation: coverage tracing, PM-operation trace recording, failure
// injection, simulated-time accounting, and crash-image harvesting. It is
// the equivalent of the instrumented target process AFL++ forks off, and
// the primitive both PMFuzz and the testing tools are built on.
package executor

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pmfuzz/internal/instr"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/trace"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// TestCase is one input to a PM program: command bytes plus the PM image
// to execute on (the paper's Requirement 1), optionally with an injected
// failure (Requirement 2).
type TestCase struct {
	// Workload names the registered program.
	Workload string
	// Input is the raw command stream (fuzzer-controlled bytes).
	Input []byte
	// Image is the starting PM image; nil runs on a fresh empty device.
	Image *pmem.Image
	// Injector optionally injects a failure; nil runs to completion.
	Injector pmem.FailureInjector
	// Bugs configures the workload's bug flags.
	Bugs *bugs.Set
	// Seed drives the workload's derandomized RNG.
	Seed int64
}

// Options tunes one execution.
type Options struct {
	// RecordTrace attaches a PM-operation trace recorder (needed by the
	// checkers; costs memory, so the fuzzing hot loop leaves it off).
	RecordTrace bool
	// Clock, when non-nil, charges this execution's simulated time to a
	// shared budget.
	Clock *pmem.Clock
	// ImageCached marks the input image as already resident (the
	// fork-server/SysOpt path), reducing the simulated open cost.
	ImageCached bool
	// MaxCommands caps executed command lines (0 = workloads.MaxCommands;
	// negative = execute no commands at all, the recovery-only run).
	MaxCommands int
	// RecordSetupPM snapshots the PM coverage map right after program
	// setup — pool open plus transaction/workload recovery, before any
	// command executes — into Result.SetupPM. The two-stage engine uses
	// it to account recovery-path PM coverage separately. The snapshot
	// is a plain copy off the hot path: it never touches the clock, so a
	// run with it on is trajectory-identical to one without.
	RecordSetupPM bool
	// MaxOps bounds PM operations per execution (0 = DefaultMaxOps); a
	// run exceeding it is reported as a hang, like a fuzzing timeout.
	MaxOps int
	// Arena, when non-nil, runs the execution on the arena's resident
	// device and pooled tracers instead of allocating fresh ones — the
	// persistent-mode hot path. See Arena for the aliasing contract on
	// the returned Result.
	Arena *Arena
	// Shard, when non-nil, receives this execution's telemetry (wall
	// latency, hang/fault counts). Telemetry is strictly read-only: it
	// never touches the clock, the device, or any result field, so a run
	// with a shard attached is bit-identical to one without.
	Shard *obs.Shard
	// Probe, when non-nil, runs after the command loop and before the
	// program closes, inside the fault-recovery scope: a probe that
	// dereferences corrupted state panics into Result.Panicked instead of
	// crashing the process. The differential oracle uses it to dump the
	// recovered workload state. A returned error lands in Result.Err.
	Probe func(env *workloads.Env, prog workloads.Program) error
}

// DefaultMaxOps bounds runaway executions (e.g. cyclic structures on
// corrupted crash images).
const DefaultMaxOps = 200_000

// Result is everything observed during one execution.
type Result struct {
	// Image is the output PM image: the final durable state for clean
	// runs, or the crash image when a failure fired.
	Image *pmem.Image
	// Crashed reports whether an injected failure fired.
	Crashed bool
	// Crash describes the failure point when Crashed.
	Crash pmem.Crash
	// LostAtCrash lists the byte ranges whose pre-failure volatile
	// content never became durable — the cross-failure taint set.
	LostAtCrash []pmem.Range
	// Err is a workload-reported error (e.g. a failing consistency
	// check), if any.
	Err error
	// Panicked reports an unexpected program fault (the segmentation
	// fault analog, e.g. a null-OID dereference).
	Panicked bool
	// PanicVal is the recovered panic value when Panicked.
	PanicVal interface{}
	// Tracer holds the branch and PM coverage maps. On an arena run it
	// may be pooled: pass the Result to Arena.Recycle once the maps are
	// consumed, or keep it (never recycle) if the maps are retained.
	Tracer *instr.Tracer
	// Trace is the PM-operation event trace (nil unless RecordTrace);
	// pooled like Tracer on arena runs.
	Trace *trace.Recorder
	// CommitVars are the commit-variable annotations registered during
	// the run (the XFDetector annotation analog); the cross-failure
	// checker exempts them from taint analysis. On an arena run the
	// slice aliases device state: read only, valid until the next run
	// on the same arena.
	CommitVars []pmem.Range
	// Barriers and Ops count ordering points and PM operations executed.
	Barriers int
	Ops      int
	// BarrierOps holds the PM-op index of each fence, for pre-fence
	// failure placement. On an arena run it aliases device state: read
	// only, valid until the next run on the same arena.
	BarrierOps []int
	// Commands counts command lines actually executed.
	Commands int
	// SetupPM is the PM coverage map captured right after program setup
	// (nil unless Options.RecordSetupPM, or when setup itself faulted).
	// It is a private copy, never pooled: retaining it across
	// Arena.Recycle is safe.
	SetupPM *instr.Map
}

// Faulted reports whether the execution ended in an unexpected fault or
// a workload-detected inconsistency (as opposed to a clean run or an
// intentionally injected crash).
func (r *Result) Faulted() bool {
	return r.Panicked || (r.Err != nil && !errors.Is(r.Err, workloads.ErrStop))
}

// Run executes a test case and returns the observed result. It never
// lets a panic escape: injected crashes produce crash images, and
// program faults (the segfault analog) are captured in the result the
// way a fuzzer captures a crashing target.
func Run(tc TestCase, opts Options) *Result {
	res, _ := run(tc, opts, nil)
	return res
}

// runExtras carries per-execution observations that only the sweep needs.
type runExtras struct {
	dev *pmem.Device
	// cmdStartOps records the device op count just before each executed
	// command line, so a crash at op X can be attributed to the command
	// that was running (Commands at X = number of starts < X).
	cmdStartOps []int
}

// run is the common execution body behind Run and SweepRun. When sh is
// non-nil a copy-on-write sweep journal is attached to the device and
// command-start op indices are recorded into it.
func run(tc TestCase, opts Options, sh *runExtras) (*Result, *runExtras) {
	obsT0 := opts.Shard.Begin()
	res := &Result{}
	if opts.Arena != nil {
		res.Tracer = opts.Arena.tracer()
	} else {
		res.Tracer = instr.NewTracer()
	}
	prog, err := workloads.New(tc.Workload)
	if err != nil {
		res.Err = err
		return res, sh
	}

	var dev *pmem.Device
	switch {
	case opts.Arena != nil:
		size := 0
		if tc.Image == nil {
			size = prog.PoolSize()
		}
		dev = opts.Arena.device(tc.Image, size)
	case tc.Image != nil:
		dev = pmem.NewDeviceFromImage(tc.Image)
	default:
		dev = pmem.NewDevice(prog.PoolSize())
	}
	if opts.Clock != nil {
		dev.SetClock(opts.Clock)
		opts.Clock.ChargeExecBase()
		opts.Clock.ChargeOpen(opts.ImageCached)
	}
	dev.SetTracer(res.Tracer)
	if opts.RecordTrace {
		if opts.Arena != nil {
			res.Trace = opts.Arena.recorder()
		} else {
			res.Trace = trace.NewRecorder()
		}
		dev.SetSink(res.Trace)
	}
	if tc.Injector != nil {
		dev.SetInjector(tc.Injector)
	}
	maxOps := opts.MaxOps
	if maxOps <= 0 {
		maxOps = DefaultMaxOps
	}
	dev.SetOpLimit(maxOps)
	if sh != nil {
		sh.dev = dev
		dev.BeginSweep()
	}

	env := &workloads.Env{
		Dev:  dev,
		T:    res.Tracer,
		RNG:  rand.New(rand.NewSource(tc.Seed)),
		Bugs: tc.Bugs,
	}

	maxCmds := opts.MaxCommands
	if maxCmds == 0 {
		maxCmds = workloads.MaxCommands
	} else if maxCmds < 0 {
		maxCmds = 0 // recovery-only run: setup and close, no commands
	}

	finish := func() {
		res.Barriers = dev.Barriers()
		res.Ops = dev.Ops()
		res.BarrierOps = dev.BarrierOps()
		res.CommitVars = dev.CommitVars()
	}

	// The body runs under a recover that distinguishes injected crashes
	// (harvest the crash image) from program faults (record the fault).
	done := func() (completed bool) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if c, ok := r.(pmem.Crash); ok {
				res.Crashed = true
				res.Crash = c
				res.LostAtCrash = dev.UnpersistedRanges()
				res.Image = &pmem.Image{Layout: tc.Workload, Data: dev.PersistedSnapshot()}
				return
			}
			res.Panicked = true
			res.PanicVal = r
			res.Image = &pmem.Image{Layout: tc.Workload, Data: dev.PersistedSnapshot()}
		}()
		if err := prog.Setup(env); err != nil {
			res.Err = fmt.Errorf("setup: %w", err)
			return false
		}
		if opts.RecordSetupPM {
			m := *res.Tracer.PMMap()
			res.SetupPM = &m
		}
		// Iterate input lines in place instead of materializing the
		// [][]byte bytes.Split allocates per run; the sequence is
		// identical (count(sep)+1 lines, including the trailing empty
		// line after a final newline).
		for rest, more := tc.Input, true; more; {
			var line []byte
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line, rest = rest[:i], rest[i+1:]
			} else {
				line, rest, more = rest, nil, false
			}
			if res.Commands >= maxCmds {
				break
			}
			res.Commands++
			if sh != nil {
				sh.cmdStartOps = append(sh.cmdStartOps, dev.Ops())
			}
			if err := prog.Exec(env, line); err != nil {
				if errors.Is(err, workloads.ErrStop) {
					break
				}
				res.Err = err
				return false
			}
		}
		if opts.Probe != nil {
			if err := opts.Probe(env, prog); err != nil {
				res.Err = err
				return false
			}
		}
		res.Image = prog.Close(env)
		if opts.Clock != nil {
			opts.Clock.ChargeClose()
		}
		return true
	}()
	finish()
	_ = done
	if opts.Shard != nil {
		_, hang := res.PanicVal.(pmem.Hang)
		opts.Shard.RecordExec(time.Since(obsT0), res.Panicked && hang, res.Faulted())
	}
	return res, sh
}

// Recover opens the test case's image and drives only the program's
// setup path — pool validation, transaction (undo/redo) recovery, and
// workload-level recovery hooks — executing zero command lines, then
// closes the program and returns the result. Result.Image is the
// recovered durable state: the start state of a stage-2 sub-campaign,
// which fuzzes command inputs from the *recovered* image rather than
// the raw crash image, exactly as the original tool re-runs the target
// on generated crash images. Result.SetupPM (RecordSetupPM is forced
// on) is the recovery path's PM coverage.
func Recover(tc TestCase, opts Options) *Result {
	tc.Input = nil
	tc.Injector = nil
	opts.MaxCommands = -1
	opts.RecordSetupPM = true
	res, _ := run(tc, opts, nil)
	return res
}
