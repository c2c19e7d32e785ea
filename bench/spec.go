package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
)

// spec is BENCHMARK.json: the workloads, and every metric's name, unit,
// better direction and (end-to-end only) regression bound. The
// benchmark prints exactly the metrics it names, so the file is the one
// list of what is measured.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent (the repository root, seen from bench/).
func loadSpec() (*spec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	for _, m := range s.metrics() {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s: better must be higher or lower, not %q", m.Name, m.Better)
		}
	}
	return &s, nil
}

// metrics lists every metric: the end-to-end ones, then the per-layer
// ones.
func (s *spec) metrics() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the metrics named in want from the computed values, in
// spec order. A name the benchmark did not compute, or a value that is
// not finite, is an error: the output must carry every listed metric.
func pick(want []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return out, nil
}
