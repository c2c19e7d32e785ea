package oracle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// Bundle is a self-contained, minimized reproduction of one oracle
// violation: everything needed to replay the failure deterministically —
// start image, minimized command stream, crash point, seed, bug flags,
// and the expected-vs-actual verdict recorded at minimization time.
type Bundle struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Input is the minimized command stream (stored in its own file on
	// disk, not in meta.json).
	Input []byte `json:"-"`
	// StartImage is the PM image the execution began from; nil means a
	// fresh empty device.
	StartImage *pmem.Image `json:"-"`
	// Barrier/PreFence/Op locate the crash point on the minimized
	// stream's sweep; Commands is how many command lines had started.
	Barrier  int  `json:"barrier"`
	PreFence bool `json:"pre_fence,omitempty"`
	Op       int  `json:"op"`
	Commands int  `json:"commands"`
	// Kind/Detail are the verdict ("recovery-fault", "recovery-error",
	// "state-mismatch") recorded when the bundle was minimized.
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	// Invariant is the violated mined rule in short form when the bundle
	// came from the invariant oracle (empty for differential-oracle
	// bundles).
	Invariant string `json:"invariant,omitempty"`
	// For state-mismatch verdicts: the two explainable states and the
	// state recovery actually produced.
	Expected     []workloads.KV `json:"expected,omitempty"`
	ExpectedNext []workloads.KV `json:"expected_next,omitempty"`
	Actual       []workloads.KV `json:"actual,omitempty"`
	// Active bug flags, so the replay faithfully rebuilds the bug set.
	SynBugs  []int `json:"syn_bugs,omitempty"`
	RealBugs []int `json:"real_bugs,omitempty"`
	// Minimization provenance: the pre-shrink input size and barrier.
	OrigInputLen int `json:"orig_input_len"`
	OrigBarrier  int `json:"orig_barrier"`
}

// bundle file names inside a repro directory.
const (
	bundleMetaFile  = "meta.json"
	bundleInputFile = "input"
	bundleImageFile = "start.img"
)

// BugSet rebuilds the bug configuration the violation was found under.
// Returns nil when no bugs were active.
func (b *Bundle) BugSet() *bugs.Set {
	if len(b.SynBugs) == 0 && len(b.RealBugs) == 0 {
		return nil
	}
	set := bugs.NewSet()
	for _, id := range b.SynBugs {
		set.EnableSyn(id)
	}
	for _, rb := range b.RealBugs {
		set.EnableReal(bugs.RealBug(rb))
	}
	return set
}

// Key identifies the bundle's minimized outcome — verdict kind, crash
// point, violated rule, and input — the identity judge.Distinct keeps
// one bundle per.
func (b *Bundle) Key() string {
	return fmt.Sprintf("%s|%d|%t|%s|%s", b.Kind, b.Barrier, b.PreFence, b.Invariant, b.Input)
}

// TestCase rebuilds the executor test case the bundle reproduces.
func (b *Bundle) TestCase() executor.TestCase {
	return executor.TestCase{
		Workload: b.Workload,
		Input:    b.Input,
		Image:    b.StartImage,
		Bugs:     b.BugSet(),
		Seed:     b.Seed,
	}
}

// Replay re-runs the bundle against the oracle and returns the earliest
// violation within the recorded barrier window. A deterministic bundle
// reproduces its recorded verdict: same barrier, same kind. A clean
// replay returns an error — the bundle no longer reproduces.
func (b *Bundle) Replay(c *Checker, opts Options) (*Violation, error) {
	opts.PreFence = opts.PreFence || b.PreFence
	opts.Minimize = false
	// Replays run unpruned so the reproduced verdict is judged at exactly
	// the recorded crash point, independent of class representatives.
	opts.NoPrune = true
	rep := c.scan(b.TestCase(), opts, b.Barrier, 1)
	if rep.Skipped != "" {
		return nil, fmt.Errorf("oracle: bundle replay skipped: %s", rep.Skipped)
	}
	if len(rep.Violations) == 0 {
		return nil, fmt.Errorf("oracle: bundle replay found no violation in barriers 1..%d", b.Barrier)
	}
	return rep.Violations[0], nil
}

// Write stores the bundle as a directory: meta.json (verdict + crash
// point), input (the minimized command stream), and start.img (the
// marshalled start image, omitted for fresh-device runs).
func (b *Bundle) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	meta = append(meta, '\n')
	if err := os.WriteFile(filepath.Join(dir, bundleMetaFile), meta, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, bundleInputFile), b.Input, 0o644); err != nil {
		return err
	}
	if b.StartImage != nil {
		if err := os.WriteFile(filepath.Join(dir, bundleImageFile), b.StartImage.Marshal(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ReadBundle loads a bundle directory written by Write.
func ReadBundle(dir string) (*Bundle, error) {
	meta, err := os.ReadFile(filepath.Join(dir, bundleMetaFile))
	if err != nil {
		return nil, err
	}
	b := &Bundle{}
	if err := json.Unmarshal(meta, b); err != nil {
		return nil, fmt.Errorf("oracle: bad bundle metadata: %w", err)
	}
	if b.Input, err = os.ReadFile(filepath.Join(dir, bundleInputFile)); err != nil {
		return nil, err
	}
	if raw, err := os.ReadFile(filepath.Join(dir, bundleImageFile)); err == nil {
		img, uerr := pmem.UnmarshalImage(raw)
		if uerr != nil {
			return nil, fmt.Errorf("oracle: bad bundle start image: %w", uerr)
		}
		b.StartImage = img
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return b, nil
}
