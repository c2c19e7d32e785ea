package core

import (
	"strings"
	"testing"
)

// fuzzCheckpointConfig is the session FuzzRestoreCheckpoint restores
// into. The seed corpus's real checkpoint was taken from it at 1 sim-ms,
// while the invariant miner was still observing (btree at seed 42
// freezes its set at 1.82 sim-ms).
func fuzzCheckpointConfig(tb testing.TB) Config {
	cfg, err := DefaultConfig("btree", PMFuzzAll, 2_000_000, 42)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.InvariantCheck = true
	return cfg
}

// FuzzRestoreCheckpoint feeds arbitrary bytes to the checkpoint decoder.
// A checkpoint is outside input — any file handed to -resume — so the
// contract is an error, never a panic or a hang. The checked-in seed
// corpus holds a real checkpoint of the harness session and crafted
// crashers: a negative queue cursor, huge RNG draw counts, a null queue
// entry, and a miner entry past the queue.
func FuzzRestoreCheckpoint(f *testing.F) {
	cfg := fuzzCheckpointConfig(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = PeekCheckpointConfig(data)
		fz, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = fz.RestoreCheckpoint(data)
	})
}

// TestRestoreCheckpointRejectsCrafted pins the decoder's range checks on
// the crafted seeds: each names the field it breaks and must fail with
// an error that names it too.
func TestRestoreCheckpointRejectsCrafted(t *testing.T) {
	const head = `{"version":4,"config":{"Workload":"btree","Seed":42,"Features":{"InputFuzz":true,"ImgFuzzIndirect":true,"ImgFuzzDirect":false,"PMPathOpt":true,"SysOpt":true}},`
	for _, c := range []struct{ name, body, want string }{
		{"negative cursor", `"queue_cursor":-1}`, "queue cursor -1 out of range"},
		{"overflowing cursor", `"queue_cursor":9223372036854775807}`, "out of range"},
		{"huge queue draws", `"queue_draws":18446744073709551615}`, "RNG draws"},
		{"huge mutator draws", `"mut_draws":4294967297}`, "RNG draws"},
		{"draws past the clock", `"clock_ns":1000000,"mut_draws":2000000}`, "RNG draws"},
		{"negative clock", `"clock_ns":-1}`, "checkpoint clock -1ns"},
		{"null entry", `"entries":[null]}`, "checkpoint entry 0"},
		{"miner entry out of range", `"invariant":{"fed":[3],"obs":0}}`, "references entry 3"},
		{"miner entry negative", `"invariant":{"fed":[-1],"obs":0}}`, "references entry -1"},
	} {
		f, err := New(fuzzCheckpointConfig(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RestoreCheckpoint([]byte(head + c.body)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
