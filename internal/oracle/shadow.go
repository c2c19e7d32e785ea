// Package oracle implements a differential crash-consistency oracle for
// the PM workloads: a pure in-memory shadow model of each workload's
// command language, a prefix/atomicity check that decides whether a
// recovered crash state is *explainable* (equal to the shadow state at
// some prefix of the executed commands, with the in-flight command either
// fully applied or fully absent — the linearizability-style criterion
// WITCHER-class output-equivalence checkers use), a repro-bundle emitter
// for violations, and a delta-debugging minimizer that shrinks both the
// command stream and the crash point while re-validating against the
// oracle. It complements the ordering-heuristic tools (internal/pmcheck,
// internal/xfd): those flag suspicious persist orderings, the oracle
// proves a crash state semantically wrong.
package oracle

import (
	"bytes"
	"fmt"

	"pmfuzz/internal/workloads"
)

// dialect selects a workload's command language.
type dialect int

const (
	dialectMapCLI    dialect = iota // i/r/g/c/q — the six PMDK structures
	dialectRedis                    // SET/GET/DEL/CHECK/QUIT, case-insensitive
	dialectMemcached                // set/get/del/c/q
)

// dialects maps workload names to their command language and consistency
// check line. All eight registered workloads reduce to a uint64→uint64
// map, so one shadow state type serves every dialect.
var dialects = map[string]struct {
	d         dialect
	checkLine []byte
}{
	"btree":          {dialectMapCLI, []byte("c")},
	"rbtree":         {dialectMapCLI, []byte("c")},
	"rtree":          {dialectMapCLI, []byte("c")},
	"skiplist":       {dialectMapCLI, []byte("c")},
	"hashmap-tx":     {dialectMapCLI, []byte("c")},
	"hashmap-atomic": {dialectMapCLI, []byte("c")},
	"redis":          {dialectRedis, []byte("CHECK")},
	"memcached":      {dialectMemcached, []byte("c")},
}

// CheckLine returns the command line that runs the workload's own
// consistency check — the recovery probe executes it after dumping state
// so counter/checksum corruption invisible in the key/value set (e.g.
// Bug 6's stale count) still surfaces.
func CheckLine(workload string) ([]byte, error) {
	d, ok := dialects[workload]
	if !ok {
		return nil, fmt.Errorf("oracle: no shadow model for workload %q", workload)
	}
	return d.checkLine, nil
}

// Shadow is the pure in-memory model of one workload's logical state. It
// parses command lines with the exact same splitting and number rules as
// the workload (workloads.ParseOp / ParseFields / ParseNum), so model and
// program agree byte-for-byte on what every fuzzed line means —
// including which lines are noise.
type Shadow struct {
	d     dialect
	state map[uint64]uint64
}

// NewShadow returns the model for the named workload, seeded with base
// (the recovered state of the start image, i.e. prefix state S₀).
func NewShadow(workload string, base []workloads.KV) (*Shadow, error) {
	d, ok := dialects[workload]
	if !ok {
		return nil, fmt.Errorf("oracle: no shadow model for workload %q", workload)
	}
	s := &Shadow{d: d.d, state: make(map[uint64]uint64, len(base))}
	for _, kv := range base {
		s.state[kv.Key] = kv.Val
	}
	return s, nil
}

// Apply executes one command line against the model. It reports whether
// the logical state changed and whether the line was a quit command
// (after which the program executes nothing further).
func (s *Shadow) Apply(line []byte) (mutated, stop bool) {
	switch s.d {
	case dialectMapCLI:
		op, err := workloads.ParseOp(line)
		if err != nil {
			return false, false // noise line: the workloads skip it too
		}
		switch op.Code {
		case 'i':
			return s.put(op.Key, op.Val), false
		case 'r':
			return s.del(op.Key), false
		case 'q':
			return false, true
		}
		return false, false

	case dialectRedis:
		fields, n := workloads.ParseFields(line)
		if n == 0 {
			return false, false
		}
		switch string(bytes.ToUpper(fields[0])) {
		case "SET":
			if n < 3 {
				return false, false
			}
			k, ok1 := workloads.ParseNum(fields[1])
			v, ok2 := workloads.ParseNum(fields[2])
			if !ok1 || !ok2 {
				return false, false
			}
			return s.put(k, v), false
		case "DEL":
			if n < 2 {
				return false, false
			}
			k, ok := workloads.ParseNum(fields[1])
			if !ok {
				return false, false
			}
			return s.del(k), false
		case "QUIT":
			return false, true
		}
		return false, false

	case dialectMemcached:
		fields, n := workloads.ParseFields(line)
		if n == 0 {
			return false, false
		}
		switch string(fields[0]) {
		case "set":
			if n < 3 {
				return false, false
			}
			k, ok1 := workloads.ParseNum(fields[1])
			v, ok2 := workloads.ParseNum(fields[2])
			if !ok1 || !ok2 {
				return false, false
			}
			return s.put(k, v), false
		case "del":
			if n < 2 {
				return false, false
			}
			k, ok := workloads.ParseNum(fields[1])
			if !ok {
				return false, false
			}
			return s.del(k), false
		case "q":
			return false, true
		}
		return false, false
	}
	return false, false
}

func (s *Shadow) put(k, v uint64) bool {
	old, had := s.state[k]
	s.state[k] = v
	return !had || old != v
}

func (s *Shadow) del(k uint64) bool {
	if _, had := s.state[k]; !had {
		return false
	}
	delete(s.state, k)
	return true
}

// Snapshot returns the model state as a sorted key/value slice,
// comparable against workloads.StateDumper dumps.
func (s *Shadow) Snapshot() []workloads.KV {
	out := make([]workloads.KV, 0, len(s.state))
	for k, v := range s.state {
		out = append(out, workloads.KV{Key: k, Val: v})
	}
	workloads.SortKVs(out)
	return out
}

// kvEqual compares two sorted dumps.
func kvEqual(a, b []workloads.KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prefixStates returns S₀..Sₙ where Sᵢ is the sorted shadow state after
// the first i executed command lines, mirroring the executor's command
// cap and quit semantics. Unchanged prefixes share one snapshot slice.
func prefixStates(workload string, base []workloads.KV, lines [][]byte, maxCmds int) ([][]workloads.KV, error) {
	sh, err := NewShadow(workload, base)
	if err != nil {
		return nil, err
	}
	states := make([][]workloads.KV, 1, len(lines)+1)
	states[0] = base
	cur := base
	for i, line := range lines {
		if i >= maxCmds {
			break
		}
		mutated, stop := sh.Apply(line)
		if mutated {
			cur = sh.Snapshot()
		}
		states = append(states, cur)
		if stop {
			break
		}
	}
	return states, nil
}
