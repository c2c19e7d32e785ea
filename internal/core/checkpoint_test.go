package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pmfuzz/internal/obs"
)

// ckptTraceRun runs one session with only the trace sink attached and
// returns (trace bytes, result, fuzzer). prep runs after New and before
// telemetry attach (checkpoint enabling / restore).
func ckptTraceRun(t *testing.T, cfg Config, prep func(f *Fuzzer)) ([]byte, *Result, *Fuzzer) {
	t.Helper()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(f)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sess, err := obs.NewSession(obs.Config{
		Workload: cfg.Workload, FuzzConfig: "pmfuzz", Workers: 1,
		Seed: cfg.Seed, BudgetNS: cfg.BudgetNS, TracePath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.SetTelemetry(sess)
	res := f.Run()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b, res, f
}

// checkpointAt runs a session with budget b2 that checkpoints at sim
// instant b1, then resumes it to the same budget, returning the
// concatenated traces and the resumed result. Both runs carry the full
// budget — the checkpoint instant is a stop trigger, not a budget.
func checkpointAt(t *testing.T, cfg Config, b1, b2 int64) ([]byte, *Result) {
	t.Helper()
	cfgA := cfg
	cfgA.BudgetNS = b2
	var blob []byte
	t1, _, f1 := ckptTraceRun(t, cfgA, func(f *Fuzzer) {
		if err := f.EnableCheckpoint(b1); err != nil {
			t.Fatal(err)
		}
	})
	blob, err := f1.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	peeked, err := PeekCheckpointConfig(blob)
	if err != nil {
		t.Fatal(err)
	}
	if peeked.Workload != cfg.Workload || peeked.Seed != cfg.Seed {
		t.Fatalf("peeked config = %q/%d, want %q/%d", peeked.Workload, peeked.Seed, cfg.Workload, cfg.Seed)
	}
	cfgB := peeked
	cfgB.BudgetNS = b2
	t2, res, _ := ckptTraceRun(t, cfgB, func(f *Fuzzer) {
		if err := f.RestoreCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
	})
	return append(append([]byte(nil), t1...), t2...), res
}

// TestCheckpointResumeTraceGolden is the resume-equivalence contract:
// checkpoint at a mid-run budget, resume to the full budget, and the
// concatenated JSONL traces must be byte-identical to the uninterrupted
// session's. Three checkpoint budgets land in different loop phases
// (mid warm-up, the end of warm-up, and a later round).
func TestCheckpointResumeTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint golden replay in -short mode")
	}
	cfg, err := DefaultConfig("btree", PMFuzzAll, 20_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	full, wantRes, _ := ckptTraceRun(t, cfg, nil)
	for _, b1 := range []int64{300_000, 2_000_000, 11_000_000} {
		got, res := checkpointAt(t, cfg, b1, cfg.BudgetNS)
		if !bytes.Equal(got, full) {
			t.Errorf("b1=%dns: concatenated checkpoint+resume trace differs from uninterrupted trace (%d vs %d bytes)",
				b1, len(got), len(full))
		}
		if res.Execs != wantRes.Execs || res.SimNS != wantRes.SimNS || res.PMPaths != wantRes.PMPaths {
			t.Errorf("b1=%dns: resumed result (execs=%d sim=%d paths=%d) != uninterrupted (execs=%d sim=%d paths=%d)",
				b1, res.Execs, res.SimNS, res.PMPaths, wantRes.Execs, wantRes.SimNS, wantRes.PMPaths)
		}
		if res.Queue.Len() != wantRes.Queue.Len() || res.Store.Len() != wantRes.Store.Len() {
			t.Errorf("b1=%dns: resumed corpus (queue=%d images=%d) != uninterrupted (queue=%d images=%d)",
				b1, res.Queue.Len(), res.Store.Len(), wantRes.Queue.Len(), wantRes.Store.Len())
		}
		if len(res.Faults) != len(wantRes.Faults) {
			t.Errorf("b1=%dns: resumed faults %d != uninterrupted %d", b1, len(res.Faults), len(wantRes.Faults))
		}
	}
}

// TestCheckpointResumeTwoStage pins the same contract for a two-stage
// session checkpointed during stage 1: the resumed run finishes stage 1
// and runs the identical stage-2 campaigns.
func TestCheckpointResumeTwoStage(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint golden replay in -short mode")
	}
	cfg, err := DefaultConfig("btree", PMFuzzAll, 30_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stage2Workers = 1
	cfg.Stage2BudgetNS = 8_000_000
	cfg.Stage2MaxCampaigns = 2
	full, wantRes, _ := ckptTraceRun(t, cfg, nil)
	got, res := checkpointAt(t, cfg, 9_000_000, cfg.BudgetNS)
	if !bytes.Equal(got, full) {
		t.Errorf("two-stage: concatenated checkpoint+resume trace differs from uninterrupted trace (%d vs %d bytes)",
			len(got), len(full))
	}
	if res.Stage2Campaigns != wantRes.Stage2Campaigns || res.Execs != wantRes.Execs || res.SimNS != wantRes.SimNS {
		t.Errorf("two-stage: resumed (campaigns=%d execs=%d sim=%d) != uninterrupted (campaigns=%d execs=%d sim=%d)",
			res.Stage2Campaigns, res.Execs, res.SimNS, wantRes.Stage2Campaigns, wantRes.Execs, wantRes.SimNS)
	}
}

// TestCheckpointRejects pins the guard rails: parallel sessions cannot
// checkpoint or resume, and a checkpoint only restores into a session
// with the same workload, seed, and feature set.
func TestCheckpointRejects(t *testing.T) {
	cfg, err := DefaultConfig("btree", PMFuzzAll, 1_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	par := cfg
	par.Workers = 2
	fp, err := New(par, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.EnableCheckpoint(500_000); err == nil {
		t.Error("EnableCheckpoint accepted a 2-worker session")
	}
	if _, err := fp.SaveCheckpoint(); err == nil {
		t.Error("SaveCheckpoint accepted a 2-worker session")
	}

	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.EnableCheckpoint(500_000); err != nil {
		t.Fatal(err)
	}
	if err := f.EnableCheckpoint(0); err == nil {
		t.Error("EnableCheckpoint accepted a non-positive instant")
	}
	if err := f.EnableCheckpoint(cfg.BudgetNS + 1); err == nil {
		t.Error("EnableCheckpoint accepted an instant past the budget")
	}
	if err := f.EnableCheckpoint(500_000); err != nil {
		t.Fatal(err)
	}
	f.Run()
	blob, err := f.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Seed = 43
	fo, err := New(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fo.RestoreCheckpoint(blob); err == nil {
		t.Error("RestoreCheckpoint accepted a mismatched seed")
	}
	smaller := cfg
	smaller.BudgetNS = 100
	fs, err := New(smaller, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.RestoreCheckpoint(blob); err == nil {
		t.Error("RestoreCheckpoint accepted a budget before the checkpoint clock")
	}
	if err := fp.RestoreCheckpoint(blob); err == nil {
		t.Error("RestoreCheckpoint accepted a 2-worker session")
	}
}
