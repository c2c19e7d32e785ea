package judge

import "bytes"

// SplitLines splits a command stream exactly the way the executor's
// command loop does: count(\n)+1 lines, including the trailing empty
// line after a final newline. Every line counts as one command.
func SplitLines(input []byte) [][]byte { return bytes.Split(input, []byte("\n")) }

// JoinLines is the inverse of SplitLines.
func JoinLines(lines [][]byte) []byte { return bytes.Join(lines, []byte("\n")) }

// Shrink minimizes a violating command stream behind still, the "does
// this input still violate?" callback, which returns the input's first
// violation or nil. Both passes re-validate every candidate through
// still, so the result always violates:
//
//  1. Truncation — a crash image depends only on the commands started
//     before the failure, so every line from keep on (keep = the
//     violation's started-command count) is dead weight and goes in one
//     step.
//  2. ddmin over the remaining lines (complement-removal delta
//     debugging, Zeller-style): repeatedly delete chunks while the
//     stream still violates. The violation may change kind while
//     shrinking (e.g. state-mismatch → recovery-fault); any violation
//     keeps the candidate — a repro reproduces *a* crash-consistency
//     failure — and the last one found is returned with the input.
//
// v is the violation input is known to produce. A nil v makes Shrink
// re-check the stream left after truncation first and give up, returning
// nil, when it no longer violates. The minimized input is always a
// subsequence of input's lines.
func Shrink[T any](input []byte, keep int, v *T, still func(input []byte) *T) ([]byte, *T) {
	lines := SplitLines(input)
	if keep < len(lines) {
		if w := still(JoinLines(lines[:keep])); w != nil {
			lines, v = lines[:keep], w
		}
	}
	if v == nil {
		if v = still(JoinLines(lines)); v == nil {
			return nil, nil
		}
	}
	granularity := 2
	for len(lines) >= 2 {
		chunk := (len(lines) + granularity - 1) / granularity
		reduced := false
		for start := 0; start < len(lines); start += chunk {
			end := min(start+chunk, len(lines))
			cand := make([][]byte, 0, len(lines)-(end-start))
			cand = append(cand, lines[:start]...)
			cand = append(cand, lines[end:]...)
			if w := still(JoinLines(cand)); w != nil {
				lines, v = cand, w
				granularity = max(granularity-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if granularity >= len(lines) {
				break
			}
			granularity = min(granularity*2, len(lines))
		}
	}
	return JoinLines(lines), v
}

// Distinct minimizes each violation and keeps one result per distinct
// minimized outcome (its Key), in first-seen order: neighbouring crash
// points usually shrink to the same repro. Violations that no longer
// reproduce minimize to nil and are dropped.
func Distinct[V any, B interface {
	comparable
	Key() string
}](vs []V, minimize func(V) B) []B {
	var none B
	var out []B
	seen := map[string]bool{}
	for _, v := range vs {
		b := minimize(v)
		if b == none || seen[b.Key()] {
			continue
		}
		seen[b.Key()] = true
		out = append(out, b)
	}
	return out
}
