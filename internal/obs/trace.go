package obs

// The structured event trace: one JSON object per line, recording the
// discrete discoveries of a session — corpus admissions, image
// harvests, fault discoveries, worker round boundaries — each stamped
// with SIMULATED time only. Because the engine is deterministic per
// (Seed, Workers) and no wall-clock value enters an event, the trace
// file itself is byte-identical across replays of the same session:
// diffing two traces diffs the sessions.

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
)

// Trace writes JSONL events. A nil *Trace drops every Emit, so callers
// never guard. Writers are buffered; Close flushes.
type Trace struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewTrace opens (truncating) a JSONL trace file.
func NewTrace(path string) (*Trace, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	return &Trace{f: f, w: w, enc: json.NewEncoder(w)}, nil
}

// Emit appends one event (any JSON-marshalable value; the package's
// *Event structs carry a "t" type tag). Errors are sticky and surfaced
// by Close.
func (t *Trace) Emit(v interface{}) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(v)
}

// Close flushes and closes the trace, returning the first error seen.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.err
	if ferr := t.w.Flush(); err == nil {
		err = ferr
	}
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SessionEvent opens every trace: the session parameters.
type SessionEvent struct {
	T        string `json:"t"` // "session"
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	BudgetNS int64  `json:"budget_ns"`
}

// AdmitEvent records an input admitted to the corpus (Figure 11 step ②
// for inputs). Worker 0 is the coordinator; workers are 1-based. Stage is 2 for admissions made inside a stage-2
// sub-campaign and omitted in stage 1, so single-stage traces are
// byte-identical to pre-two-stage ones.
type AdmitEvent struct {
	T          string `json:"t"` // "admit"
	SimNS      int64  `json:"sim_ns"`
	Worker     int    `json:"worker"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Favored    int    `json:"favored"`
	NewBranch  bool   `json:"new_branch"`
	NewPM      bool   `json:"new_pm"`
	CrashImage bool   `json:"crash_image"`
	HasImage   bool   `json:"has_image"`
	Stage      int    `json:"stage,omitempty"`
}

// HarvestEvent records a freshly generated PM image entering the store
// and the corpus (Figure 11 steps ③–⑤). Image is the content hash's
// short hex prefix.
type HarvestEvent struct {
	T          string `json:"t"` // "harvest"
	SimNS      int64  `json:"sim_ns"`
	Worker     int    `json:"worker"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Image      string `json:"image"`
	CrashImage bool   `json:"crash_image"`
	Stage      int    `json:"stage,omitempty"`
}

// FaultEvent records a deduplicated fault bucket's first detection
// (§5.4.1's time-to-detection).
type FaultEvent struct {
	T      string `json:"t"` // "fault"
	SimNS  int64  `json:"sim_ns"`
	Worker int    `json:"worker"`
	Execs  int    `json:"execs"`
	Msg    string `json:"msg"`
	Stage  int    `json:"stage,omitempty"`
}

// ClassEvent records one pruned oracle sweep's equivalence-class
// statistics: how many representative classes the sweep partitioned
// into, how many crash points were absorbed as class members (hits),
// how many points were judged in total, and how many recovery
// executions were actually spent. Emitted only when sweep pruning is
// active, so unpruned traces are byte-identical to pre-pruning ones
// modulo nothing at all.
type ClassEvent struct {
	T          string `json:"t"` // "class"
	SimNS      int64  `json:"sim_ns"`
	Worker     int    `json:"worker"`
	Classes    int    `json:"classes"`
	Hits       int    `json:"hits"`
	Checked    int    `json:"checked"`
	Recoveries int    `json:"recoveries"`
	Stage      int    `json:"stage,omitempty"`
}

// InvEvent records invariant-oracle activity: the mined-set freeze
// (Obs/Mined set, check fields zero) or one check of a test case's
// sweep against the frozen set (Checked/Violations/Dropped plus the
// value-leg class statistics). Emitted only when the invariant oracle
// is enabled, so traces without it are byte-identical to pre-feature
// ones.
type InvEvent struct {
	T          string `json:"t"` // "inv"
	SimNS      int64  `json:"sim_ns"`
	Worker     int    `json:"worker"`
	Obs        int    `json:"obs,omitempty"`
	Mined      int    `json:"mined,omitempty"`
	Checked    int    `json:"checked,omitempty"`
	Violations int    `json:"violations,omitempty"`
	Dropped    int    `json:"dropped,omitempty"`
	Classes    int    `json:"classes,omitempty"`
	Hits       int    `json:"hits,omitempty"`
	Recoveries int    `json:"recoveries,omitempty"`
	Stage      int    `json:"stage,omitempty"`
}

// RoundEvent records one worker batch merged by the coordinator — the
// fleet's heartbeat. Done marks the worker's budget exhausting.
type RoundEvent struct {
	T        string `json:"t"` // "round"
	SimNS    int64  `json:"sim_ns"`
	Worker   int    `json:"worker"`
	Outcomes int    `json:"outcomes"`
	Done     bool   `json:"done"`
}

// StageEnterEvent marks a stage transition in the two-stage pipeline:
// the scheduler entering stage 1's input-fuzzing loop, or launching one
// stage-2 sub-campaign from a promoted crash image. Emitted only when
// stage 2 is enabled, so single-stage traces carry no stage events.
type StageEnterEvent struct {
	T     string `json:"t"` // "stage_enter"
	SimNS int64  `json:"sim_ns"`
	Stage int    `json:"stage"`
	// Iter is the stage-2 promotion round (the original tool's
	// stage=2,iter=N directories); Campaign is the sub-campaign ordinal
	// within the session. Both are 0 for stage 1.
	Iter     int `json:"iter"`
	Campaign int `json:"campaign"`
	// Root is the promoted crash-image entry's queue ID (-1 for stage
	// 1); Image its content hash prefix; Score its promotion score
	// (2 = oracle-flagged, 1 = novel PM path).
	Root  int    `json:"root"`
	Image string `json:"image,omitempty"`
	Score int    `json:"score,omitempty"`
	// Workers and BudgetNS are the stage's core and simulated-time
	// budgets.
	Workers  int   `json:"workers"`
	BudgetNS int64 `json:"budget_ns"`
}

// StageExitEvent closes a StageEnterEvent with the stage's outcomes.
type StageExitEvent struct {
	T        string `json:"t"` // "stage_exit"
	SimNS    int64  `json:"sim_ns"`
	Stage    int    `json:"stage"`
	Iter     int    `json:"iter"`
	Campaign int    `json:"campaign"`
	// Execs counts executions consumed by the stage; PMPaths the
	// session-wide distinct PM-path count on exit; RecoverySites the
	// session-wide recovery-phase coverage states on exit.
	Execs         int `json:"execs"`
	PMPaths       int `json:"pm_paths"`
	RecoverySites int `json:"recovery_sites"`
}

// SyncEvent records one campaign sync exchange with the shared sync
// directory: entries pushed, entries pulled in (and how many incoming
// cases were dropped as duplicates), tolerated I/O errors, and blob
// bytes moved. Emitted only when a sync directory is configured, so
// solo traces are byte-identical to pre-fleet ones — and because sync
// runs on a wall-clock ticker, a trace containing sync events is
// explicitly not deterministic.
type SyncEvent struct {
	T         string `json:"t"` // "sync"
	SimNS     int64  `json:"sim_ns"`
	Fuzzer    string `json:"fuzzer"`
	Published int    `json:"published"`
	Imported  int    `json:"imported"`
	Dedup     int    `json:"dedup"`
	Errors    int    `json:"errors"`
	BytesIn   int64  `json:"bytes_in"`
	BytesOut  int64  `json:"bytes_out"`
}

// EndEvent closes every trace: the session totals.
type EndEvent struct {
	T        string `json:"t"` // "end"
	SimNS    int64  `json:"sim_ns"`
	Execs    int    `json:"execs"`
	PMPaths  int    `json:"pm_paths"`
	QueueLen int    `json:"queue"`
	Images   int    `json:"images"`
	Faults   int    `json:"faults"`
}
