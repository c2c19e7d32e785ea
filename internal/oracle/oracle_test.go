package oracle

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/judge"
	"pmfuzz/internal/workloads"
	"pmfuzz/internal/workloads/bugs"
)

// cleanInputs drives each workload through inserts, removals, lookups,
// and its consistency check in its own dialect.
var cleanInputs = map[string][]byte{
	"btree":          kvInput(),
	"rbtree":         kvInput(),
	"rtree":          kvInput(),
	"skiplist":       kvInput(),
	"hashmap-tx":     kvInput(),
	"hashmap-atomic": kvInput(),
	"redis":          []byte("SET 1 1\nSET 9 2\nSET 17 3\nDEL 9\nCHECK\n"),
	"memcached":      []byte("set 1 1\nset 2 2\ndel 1\nset 3 3\nc\n"),
}

func kvInput() []byte {
	var b bytes.Buffer
	for i := 1; i <= 14; i++ {
		fmt.Fprintf(&b, "i %d %d\n", i*5%17, i)
	}
	b.WriteString("r 5\nr 10\nc\n")
	return b.Bytes()
}

// TestOracleCleanWorkloads is the false-positive gate: with no bugs
// enabled, every crash image of every workload's sweep — including the
// pre-fence windows — must recover to an explainable state.
func TestOracleCleanWorkloads(t *testing.T) {
	c := NewChecker()
	for _, w := range workloads.Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			in, ok := cleanInputs[w]
			if !ok {
				t.Fatalf("no clean input for workload %q", w)
			}
			tc := executor.TestCase{Workload: w, Input: in, Seed: 1}
			rep := c.Check(tc, Options{PreFence: true})
			if rep.Skipped != "" {
				t.Fatalf("oracle skipped: %s", rep.Skipped)
			}
			if rep.Checked == 0 {
				t.Fatalf("oracle checked no crash images (barriers=%d)", rep.Barriers)
			}
			for _, v := range rep.Violations {
				t.Errorf("false positive: %s", v)
			}
		})
	}
}

// TestOracleConfirmsRealBugs is the true-positive gate: the oracle must
// flag §5.4's crash-consistency bugs (Bugs 1–6) on the same trigger
// inputs the trace-based checkers use, and the minimized repro bundle
// must replay deterministically to the same verdict.
func TestOracleConfirmsRealBugs(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		input    []byte
		bug      bugs.RealBug
	}{
		{"bug1", "hashmap-tx", []byte("i 1 1\ni 2 2\n"), bugs.Bug1HashmapTXCreateNotRetried},
		{"bug2", "btree", []byte("i 1 1\ni 2 2\n"), bugs.Bug2BTreeCreateNotRetried},
		{"bug3", "rbtree", []byte("i 1 1\ni 2 2\n"), bugs.Bug3RBTreeCreateNotRetried},
		{"bug4", "rtree", []byte("i 1 1\ni 2 2\n"), bugs.Bug4RTreeCreateNotRetried},
		{"bug5", "skiplist", []byte("i 1 1\ni 2 2\n"), bugs.Bug5SkipListCreateNotRetried},
		{"bug6", "hashmap-atomic", []byte("i 1 1\ni 2 2\ni 3 3\nc\n"), bugs.Bug6AtomicRecoveryNotCalled},
	}
	c := NewChecker()
	for _, tcase := range cases {
		tcase := tcase
		t.Run(tcase.name, func(t *testing.T) {
			tc := executor.TestCase{
				Workload: tcase.workload,
				Input:    tcase.input,
				Bugs:     bugs.NewSet().EnableReal(tcase.bug),
				Seed:     1,
			}
			rep := c.Check(tc, Options{MaxViolations: 1, Minimize: true})
			if rep.Skipped != "" {
				t.Fatalf("oracle skipped: %s", rep.Skipped)
			}
			if len(rep.Violations) == 0 {
				t.Fatalf("oracle missed %v (checked %d images over %d barriers)",
					tcase.bug, rep.Checked, rep.Barriers)
			}
			if len(rep.Bundles) != len(rep.Violations) {
				t.Fatalf("got %d bundles for %d violations", len(rep.Bundles), len(rep.Violations))
			}
			b := rep.Bundles[0]
			if len(b.Input) > len(tc.Input) {
				t.Fatalf("minimized input grew: %d > %d bytes", len(b.Input), len(tc.Input))
			}
			if b.Barrier > rep.Violations[0].Barrier {
				t.Fatalf("minimized barrier %d later than original %d", b.Barrier, rep.Violations[0].Barrier)
			}
			// Determinism: the bundle replays to its recorded verdict.
			for i := 0; i < 2; i++ {
				v, err := b.Replay(c, Options{})
				if err != nil {
					t.Fatalf("replay %d: %v", i, err)
				}
				if v.Kind != b.Kind || v.Barrier != b.Barrier {
					t.Fatalf("replay %d verdict drifted: got %s@%d, bundle says %s@%d",
						i, v.Kind, v.Barrier, b.Kind, b.Barrier)
				}
			}
		})
	}
}

// TestOracleFixedProgramsClean re-checks the bug trigger inputs with the
// bugs disabled — the patched programs must produce zero violations.
func TestOracleFixedProgramsClean(t *testing.T) {
	c := NewChecker()
	for _, w := range []string{"hashmap-tx", "btree", "rbtree", "rtree", "skiplist", "hashmap-atomic"} {
		tc := executor.TestCase{Workload: w, Input: []byte("i 1 1\ni 2 2\nc\n"), Seed: 1}
		rep := c.Check(tc, Options{})
		if rep.Skipped != "" {
			t.Fatalf("%s: oracle skipped: %s", w, rep.Skipped)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s: false positive on fixed program: %s", w, v)
		}
	}
}

// TestBundleRoundTrip writes a bundle to disk, reads it back, and
// replays the loaded copy.
func TestBundleRoundTrip(t *testing.T) {
	c := NewChecker()
	tc := executor.TestCase{
		Workload: "btree",
		Input:    []byte("i 1 1\ni 2 2\n"),
		Bugs:     bugs.NewSet().EnableReal(bugs.Bug2BTreeCreateNotRetried),
		Seed:     1,
	}
	rep := c.Check(tc, Options{MaxViolations: 1, Minimize: true})
	if len(rep.Bundles) == 0 {
		t.Fatal("no bundle emitted")
	}
	dir := t.TempDir()
	if err := rep.Bundles[0].Write(dir); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadBundle(dir)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := rep.Bundles[0]
	if got.Workload != want.Workload || got.Seed != want.Seed ||
		got.Barrier != want.Barrier || got.Kind != want.Kind ||
		!bytes.Equal(got.Input, want.Input) {
		t.Fatalf("round trip drifted: got %+v want %+v", got, want)
	}
	v, err := got.Replay(c, Options{})
	if err != nil {
		t.Fatalf("replay of loaded bundle: %v", err)
	}
	if v.Kind != want.Kind || v.Barrier != want.Barrier {
		t.Fatalf("loaded bundle verdict drifted: got %s@%d want %s@%d",
			v.Kind, v.Barrier, want.Kind, want.Barrier)
	}
}

// genCommands emits a randomized command stream in the workload's
// dialect: inserts, removals, lookups, consistency checks, and noise
// lines the parser must skip.
func genCommands(w string, rng *rand.Rand, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		k, v := rng.Intn(32), rng.Intn(1000)
		switch w {
		case "redis":
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				fmt.Fprintf(&b, "SET %d %d\n", k, v)
			case 4:
				fmt.Fprintf(&b, "set %d %d\n", k, v) // case-insensitive
			case 5:
				fmt.Fprintf(&b, "DEL %d\n", k)
			case 6:
				fmt.Fprintf(&b, "GET %d\n", k)
			case 7:
				b.WriteString("?? noise ##\n")
			}
		case "memcached":
			switch rng.Intn(8) {
			case 0, 1, 2, 3:
				fmt.Fprintf(&b, "set %d %d\n", k, v)
			case 4, 5:
				fmt.Fprintf(&b, "del %d\n", k)
			case 6:
				fmt.Fprintf(&b, "get %d\n", k)
			case 7:
				b.WriteString("?? noise ##\n")
			}
		default: // mapcli
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				fmt.Fprintf(&b, "i %d %d\n", k, v)
			case 5, 6:
				fmt.Fprintf(&b, "r %d\n", k)
			case 7:
				fmt.Fprintf(&b, "g %d\n", k)
			case 8:
				b.WriteString("c\n")
			case 9:
				b.WriteString("?? noise ##\n")
			}
		}
	}
	return b.Bytes()
}

// TestShadowConformance is the model-vs-program gate: randomized clean
// executions of every workload must end in exactly the state the shadow
// model predicts.
func TestShadowConformance(t *testing.T) {
	for _, w := range workloads.Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				input := genCommands(w, rng, 30)

				var dump []workloads.KV
				probe := func(env *workloads.Env, prog workloads.Program) error {
					dump = prog.(workloads.StateDumper).DumpState(env)
					return nil
				}
				res := executor.Run(
					executor.TestCase{Workload: w, Input: input, Seed: seed},
					executor.Options{Probe: probe})
				if res.Faulted() {
					t.Fatalf("seed %d: clean run faulted: panicked=%v err=%v (input %q)",
						seed, res.Panicked, res.Err, input)
				}

				prefixes, err := prefixStates(w, nil, judge.SplitLines(input), workloads.MaxCommands)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				want := prefixes[len(prefixes)-1]
				if !kvEqual(dump, want) {
					t.Fatalf("seed %d: program state diverged from shadow model\ninput: %q\nprogram: %v\nshadow:  %v",
						seed, input, dump, want)
				}
			}
		})
	}
}

// TestShadowPrefixSemantics pins the command-counting rules the oracle
// relies on: every line is a command, noise lines are no-ops, quit stops
// the stream, and the trailing empty line after a final newline counts.
func TestShadowPrefixSemantics(t *testing.T) {
	in := []byte("i 1 10\nnoise\ni 2 20\nq\ni 3 30\n")
	lines := judge.SplitLines(in)
	if len(lines) != 6 { // 5 commands + trailing empty line
		t.Fatalf("SplitLines: got %d lines, want 6", len(lines))
	}
	prefixes, err := prefixStates("btree", nil, lines, workloads.MaxCommands)
	if err != nil {
		t.Fatal(err)
	}
	// S0..S4: quit at line index 3 stops the stream after recording S4.
	if len(prefixes) != 5 {
		t.Fatalf("prefixStates: got %d states, want 5", len(prefixes))
	}
	if len(prefixes[1]) != 1 || len(prefixes[2]) != 1 || len(prefixes[3]) != 2 {
		t.Fatalf("prefix sizes wrong: %v", prefixes)
	}
	if !kvEqual(prefixes[3], prefixes[4]) {
		t.Fatalf("quit mutated state: %v vs %v", prefixes[3], prefixes[4])
	}
	if !bytes.Equal(judge.JoinLines(lines), in) {
		t.Fatalf("JoinLines not inverse of SplitLines")
	}
}
