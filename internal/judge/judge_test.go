package judge

import (
	"bytes"
	"strings"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/workloads/bugs"
)

// countPlugin is a toy plugin: its step counts its runs and reads the
// materialized image's hash, and a point violates when bad says so.
func countPlugin(steps *int, bad func(executor.CrashFingerprint) bool) Plugin[[32]byte, string] {
	return Plugin[[32]byte, string]{
		Key: func(p executor.CrashFingerprint) [32]byte { return p.FP.ImageHash },
		Step: func(crash *executor.Result) [32]byte {
			*steps++
			return crash.Image.Hash()
		},
		Verdict: func(p executor.CrashFingerprint, h [32]byte) []string {
			if p.FP.ImageHash != ([32]byte{}) && h != p.FP.ImageHash {
				return []string{"step saw another image"}
			}
			if bad(p) {
				return []string{"bad"}
			}
			return nil
		},
	}
}

func btreeSweep(t *testing.T, d *Driver, maxB int) *Sweep {
	t.Helper()
	tc := executor.TestCase{Workload: "btree", Input: []byte("i 1 1\ni 2 2\ni 3 3\nr 2\nc\n"), Seed: 1}
	sw := d.Sweep(tc, executor.Options{}, maxB)
	if sw.Skipped() != "" || sw.Barriers() == 0 {
		t.Fatalf("sweep unusable: %q, %d barriers", sw.Skipped(), sw.Barriers())
	}
	return sw
}

// TestJudgePasses pins the pass semantics on a real sweep: a clean
// pruned pass judges one point per class and covers every point, an
// unpruned pass judges through the memo, and a violating representative
// falls back to the per-member pass with the unpruned findings.
func TestJudgePasses(t *testing.T) {
	var d Driver
	sw := btreeSweep(t, &d, 0)
	defer sw.Close()
	points := sw.Points(true)
	clean := func(executor.CrashFingerprint) bool { return false }

	var steps int
	var m Memo[[32]byte]
	found, st := Judge(sw, points, &m, countPlugin(&steps, clean), true, 0)
	if found != nil || st.Checked != len(points) || st.Classes+st.ClassHits != len(points) {
		t.Fatalf("clean pruned pass: found=%v stats=%+v over %d points", found, st, len(points))
	}
	if st.Classes <= 1 || st.ClassHits == 0 || st.Recoveries+st.MemoHits != st.Classes || steps != st.Recoveries {
		t.Fatalf("clean pruned pass accounting: stats=%+v steps=%d", st, steps)
	}

	var full Memo[[32]byte]
	steps = 0
	found, st = Judge(sw, points, &full, countPlugin(&steps, clean), false, 0)
	if found != nil || st.Checked != len(points) || st.Classes != 0 || st.Recoveries+st.MemoHits != len(points) || st.MemoHits == 0 {
		t.Fatalf("unpruned pass: found=%v stats=%+v", found, st)
	}

	// The last class representative violates: every earlier
	// representative was judged clean before the fallback.
	seen, lastRep := map[uint64]bool{}, 0
	for i, p := range points {
		if !seen[p.SemanticKey()] {
			seen[p.SemanticKey()], lastRep = true, i
		}
	}
	isLastRep := func(p executor.CrashFingerprint) bool { return p == points[lastRep] }
	var fb Memo[[32]byte]
	found, st = Judge(sw, points, &fb, countPlugin(&steps, isLastRep), true, 0)
	if st.Checked != len(points) || len(found.At(lastRep)) != 1 {
		t.Fatalf("fallback pass: stats=%+v at %d: %v", st, lastRep, found.At(lastRep))
	}
	for i := range points {
		if i != lastRep && len(found.At(i)) != 0 {
			t.Fatalf("fallback flagged clean point %d", i)
		}
	}
	if st.Recoveries+st.MemoHits != st.Classes+len(points) {
		t.Fatalf("fallback did not rejudge every member through the memo: stats=%+v points=%d", st, len(points))
	}

	all := func(executor.CrashFingerprint) bool { return true }
	var early Memo[[32]byte]
	found, st = Judge(sw, points, &early, countPlugin(&steps, all), false, 2)
	if st.Checked != 2 || len(found.At(0)) != 1 || len(found.At(1)) != 1 {
		t.Fatalf("maxV=2 pass: stats=%+v", st)
	}
}

// TestSweepCapAndSkip: the barrier cap bounds the points, and a faulting
// clean run is skipped with its reason.
func TestSweepCapAndSkip(t *testing.T) {
	var d Driver
	sw := btreeSweep(t, &d, 3)
	if sw.MaxBarrier() != 3 {
		t.Fatalf("cap 3: MaxBarrier %d", sw.MaxBarrier())
	}
	for _, p := range sw.Points(true) {
		if p.Barrier > 3 {
			t.Fatalf("point past the cap: %+v", p)
		}
	}
	sw.Close()
	sw = btreeSweep(t, &d, 0)
	if sw.MaxBarrier() != sw.Barriers() {
		t.Fatalf("no cap: MaxBarrier %d of %d", sw.MaxBarrier(), sw.Barriers())
	}
	sw.Close()

	faulty := executor.TestCase{
		Workload: "btree", Input: []byte("i 1 1\nc\n"), Seed: 1,
		Bugs: bugs.NewSet().EnableSyn(17),
	}
	sw = d.Sweep(faulty, executor.Options{}, 0)
	defer sw.Close()
	if !sw.Clean.Faulted() {
		t.Skip("syn 17 did not fault on this input")
	}
	if !strings.HasPrefix(sw.Skipped(), "clean execution faulted") {
		t.Fatalf("faulting run not skipped: %q", sw.Skipped())
	}
}

// TestEarliest: bisection lands on the first violating barrier of a
// violating suffix and returns nil when nothing violates.
func TestEarliest(t *testing.T) {
	var d Driver
	sw := btreeSweep(t, &d, 0)
	defer sw.Close()
	n := sw.Barriers()
	from := n / 2
	var steps int
	p := countPlugin(&steps, func(fp executor.CrashFingerprint) bool { return fp.Barrier >= from })
	vs := Earliest(sw, p, false, n)
	if len(vs) != 1 || steps == 0 || steps > 2*bitsLen(n) {
		t.Fatalf("earliest over %d barriers: %v after %d probes", n, vs, steps)
	}
	var at int
	p.Verdict = func(fp executor.CrashFingerprint, _ [32]byte) []string {
		if fp.Barrier >= from {
			at = fp.Barrier
			return []string{"bad"}
		}
		return nil
	}
	Earliest(sw, p, false, n)
	if at != from {
		t.Fatalf("bisection ended at barrier %d, want %d", at, from)
	}
	if vs := Earliest(sw, countPlugin(&steps, func(executor.CrashFingerprint) bool { return false }), true, n); vs != nil {
		t.Fatalf("clean bisection found %v", vs)
	}
}

func bitsLen(n int) int {
	b := 0
	for ; n > 0; n >>= 1 {
		b++
	}
	return b
}

// TestShrink pins the minimizer: truncation to the started commands,
// ddmin down to the lines the violation needs, re-verification when the
// start is unknown, and giving up when the stream no longer violates.
func TestShrink(t *testing.T) {
	type viol struct{ lines int }
	// A stream violates while it still holds both "x" and "y" lines.
	still := func(in []byte) *viol {
		if bytes.Contains(in, []byte("x")) && bytes.Contains(in, []byte("y")) {
			return &viol{len(SplitLines(in))}
		}
		return nil
	}
	in := []byte("a\nx\nb\nc\ny\nd\ne")
	start := &viol{7}
	out, v := Shrink(in, 6, start, still)
	if string(out) != "x\ny" || v == nil || v.lines != 2 {
		t.Fatalf("Shrink = %q, %+v; want \"x\\ny\"", out, v)
	}
	// Truncation that loses the violation is rejected; ddmin still runs.
	out, _ = Shrink(in, 2, start, still)
	if string(out) != "x\ny" {
		t.Fatalf("rejected truncation: Shrink = %q", out)
	}
	// A nil start is re-verified; a clean stream gives up.
	if out, v := Shrink([]byte("a\nb"), 5, nil, still); out != nil || v != nil {
		t.Fatalf("clean stream minimized to %q, %+v", out, v)
	}
	if out, v := Shrink(in, 9, nil, still); string(out) != "x\ny" || v == nil {
		t.Fatalf("nil start: Shrink = %q, %+v", out, v)
	}
	// Truncating to zero commands tries the empty stream.
	always := func([]byte) *viol { return &viol{} }
	if out, _ := Shrink(in, 0, start, always); len(out) != 0 {
		t.Fatalf("keep=0 kept %q", out)
	}
	if !bytes.Equal(JoinLines(SplitLines(in)), in) || len(SplitLines([]byte("a\n"))) != 2 {
		t.Fatal("SplitLines/JoinLines are not the executor's line rule")
	}
}

type bundle struct{ key string }

func (b *bundle) Key() string { return b.key }

// TestDistinct keeps the first bundle per key, in order, and drops
// violations that no longer reproduce.
func TestDistinct(t *testing.T) {
	got := Distinct([]string{"a", "b", "a2", "gone", "c", "b2"}, func(v string) *bundle {
		if v == "gone" {
			return nil
		}
		return &bundle{v[:1]}
	})
	var keys []string
	for _, b := range got {
		keys = append(keys, b.key)
	}
	if strings.Join(keys, ",") != "a,b,c" {
		t.Fatalf("Distinct kept %v, want a,b,c", keys)
	}
}
