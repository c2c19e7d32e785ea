package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/obs"
	"pmfuzz/internal/pmem"
	"pmfuzz/internal/workloads"
)

// span is one timed call the benchmark made into a layer. Req is the
// case or queue-entry index the call served (-1 for none); Parent is 0
// for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory until the benchmark
// writes them out at exit. A nil tracer records nothing, so the untraced
// reps run the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// durations returns the durations in nanoseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, float64(s.End-s.Start))
		}
	}
	return d
}

// selfTime is one span name's total and self time: a span's self time is
// its duration minus the part of it its child spans cover.
type selfTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) selfTimes() []selfTime {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	by := map[string]*selfTime{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// write stores the spans and the per-name self times as
// dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Self     []selfTime `json:"self"`
		Spans    []span     `json:"spans"`
	}{workload, seed, t.selfTimes(), t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}

// stageRun is one traced fuzzing session: its telemetry snapshot, its
// wall time and its worker count.
type stageRun struct {
	snap    obs.Snapshot
	wall    time.Duration
	workers int
}

// stageMetrics turns the stage registry of traced sessions into layer
// metrics. Stage times are shares of the sessions' worker capacity
// (workers × wall time), so they read the same at any session length;
// counts are totals.
func stageMetrics(runs []stageRun) map[string]float64 {
	var ns, ops [obs.NumStages]int64
	var capacity float64
	var lease, idle int64
	var st obs.Snapshot // store counters, summed
	for _, r := range runs {
		capacity += float64(r.wall.Nanoseconds()) * float64(r.workers)
		for i := range ns {
			ns[i] += r.snap.Stages[i].NS
			ops[i] += r.snap.Stages[i].Ops
		}
		lease += r.snap.LeaseNS
		idle += r.snap.IdleNS
		st.StorePuts += r.snap.StorePuts
		st.StoreDedups += r.snap.StoreDedups
		st.StoreDeltaPuts += r.snap.StoreDeltaPuts
		st.CacheHits += r.snap.CacheHits
		st.CacheMisses += r.snap.CacheMisses
		st.RawBytes += r.snap.RawBytes
		st.CompressedBytes += r.snap.CompressedBytes
	}
	pct := func(x int64) float64 { return 100 * float64(x) / capacity }
	// Worker-side stages; merge runs on the coordinator while workers
	// idle, so it is left out of the attributed sum.
	var attributed int64 = idle
	for _, s := range []obs.Stage{obs.StageMutate, obs.StageExec, obs.StageSweep, obs.StagePut, obs.StageGet, obs.StageRepCheck} {
		attributed += ns[s]
	}
	return map[string]float64{
		"core.merge_pct":           pct(ns[obs.StageMerge]),
		"core.merge_ops":           float64(ops[obs.StageMerge]),
		"core.lease_pct":           pct(lease),
		"core.idle_pct":            pct(idle),
		"core.idle_ratio":          ratio(idle, lease+idle),
		"core.unattributed_pct":    100 - pct(attributed),
		"fuzz.mutate_pct":          pct(ns[obs.StageMutate]),
		"fuzz.mutate_ops":          float64(ops[obs.StageMutate]),
		"executor.exec_pct":        pct(ns[obs.StageExec]),
		"executor.exec_ops":        float64(ops[obs.StageExec]),
		"executor.sweep_pct":       pct(ns[obs.StageSweep]),
		"executor.sweep_ops":       float64(ops[obs.StageSweep]),
		"imgstore.put_pct":         pct(ns[obs.StagePut]),
		"imgstore.put_ops":         float64(ops[obs.StagePut]),
		"imgstore.get_pct":         pct(ns[obs.StageGet]),
		"imgstore.get_ops":         float64(ops[obs.StageGet]),
		"imgstore.cache_hit_ratio": ratio(st.CacheHits, st.CacheHits+st.CacheMisses),
		"imgstore.dedup_ratio":     st.DedupRate(),
		"imgstore.delta_put_ratio": st.DeltaRate(),
		"imgstore.compression_x":   st.CompressionRatio(),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayLayers times each layer's public functions directly, cycling
// over the given queue entries: at least sc.replayCalls calls each.
// Decoded images are capped at sc.replayImages (each is a whole pool);
// entries beyond the cap whose image is not yet decoded are skipped.
func replayLayers(tr *tracer, refs []caseRef, sc scale, v map[string]float64) error {
	root := tr.begin("bench.replay", 0, -1)
	defer tr.end(root)
	var cases []executor.TestCase
	decoded := map[imgstore.ID]*pmem.Image{}
	seeds := map[string][][]byte{}
	for _, c := range refs {
		if c.hasImage && decoded[c.image] == nil {
			if len(decoded) == sc.replayImages {
				continue
			}
			tc, err := c.testCase()
			if err != nil {
				return err
			}
			decoded[c.image] = tc.Image
		}
		cases = append(cases, executor.TestCase{Workload: c.workload, Input: c.input, Image: decoded[c.image], Seed: c.seed})
		if seeds[c.workload] == nil {
			p, err := workloads.New(c.workload)
			if err != nil {
				return err
			}
			seeds[c.workload] = p.SeedInputs()
		}
	}
	if len(cases) == 0 {
		return fmt.Errorf("replay: no cases")
	}
	n := sc.replayCalls
	at := func(i int) executor.TestCase { return cases[i%len(cases)] }

	// fuzz: Mutator.Havoc, with the dictionary the engine builds.
	var dict [][]byte
	for _, s := range seeds {
		dict = append(dict, fuzz.DictFor(s)...)
	}
	mut := fuzz.NewMutator(1, dict)
	sp := tr.begin("replay.fuzz.Mutator.Havoc", root, -1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		mut.Havoc(at(i).Input)
	}
	v["fuzz.havoc_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	tr.end(sp)

	// executor: Run on an arena, the fuzzing workers' hot path.
	arena := executor.NewArena()
	lat := make([]float64, 0, n)
	var pmOps, barriers, commands int
	sp = tr.begin("replay.executor.Run", root, -1)
	a0 := heapAllocs()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		res := executor.Run(at(i), executor.Options{Arena: arena})
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		pmOps, barriers, commands = pmOps+res.Ops, barriers+res.Barriers, commands+res.Commands
		arena.Recycle(res)
		arena.RecycleImage(res.Image)
	}
	v["executor.allocs_per_exec"] = float64(heapAllocs()-a0) / float64(n)
	tr.end(sp)
	v["executor.exec_ns_p50"] = quantile(lat, 0.5)
	v["executor.exec_ns_p99"] = quantile(lat, 0.99)
	v["executor.pm_ops_per_exec"] = float64(pmOps) / float64(n)
	v["executor.barriers_per_exec"] = float64(barriers) / float64(n)
	v["executor.commands_per_exec"] = float64(commands) / float64(n)

	// executor: the journaled sweep, crash materialisation,
	// fingerprinting and recovery — the checkers' path.
	sp = tr.begin("replay.executor.SweepRun", root, -1)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		s := executor.SweepRun(at(i), executor.Options{Arena: arena})
		arena.Recycle(s.Clean)
	}
	v["executor.sweeprun_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	tr.end(sp)

	var crashNS, fpNS time.Duration
	var crashCalls, points int
	var crashed []*pmem.Image
	sp = tr.begin("replay.executor.Crash", root, -1)
	for i := 0; crashCalls < n || points < n; i++ {
		if i == len(cases) && crashCalls == 0 {
			return fmt.Errorf("replay: no case has an ordering point")
		}
		s := executor.SweepRun(at(i), executor.Options{Arena: arena})
		t0 := time.Now()
		points += len(s.Fingerprints(0, true))
		fpNS += time.Since(t0)
		for b := 1; b <= s.Barriers(); b++ {
			t0 := time.Now()
			res := s.Crash(b)
			crashNS += time.Since(t0)
			crashCalls++
			if len(crashed) < sc.replayImages/4 && res != nil && res.Image != nil {
				crashed = append(crashed, copyImage(res.Image))
			}
		}
		arena.Recycle(s.Clean)
	}
	tr.end(sp)
	if len(crashed) == 0 {
		return fmt.Errorf("replay: no crash image to recover")
	}
	v["executor.crash_ns"] = float64(crashNS.Nanoseconds()) / float64(crashCalls)
	v["executor.fingerprint_ns_per_point"] = float64(fpNS.Nanoseconds()) / float64(points)

	sp = tr.begin("replay.executor.Recover", root, -1)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		c := at(i)
		res := executor.Recover(executor.TestCase{Workload: c.Workload, Image: crashed[i%len(crashed)], Seed: c.Seed}, executor.Options{Arena: arena})
		arena.Recycle(res)
		arena.RecycleImage(res.Image)
	}
	v["executor.recover_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	tr.end(sp)

	// imgstore: Put into a fresh store, Get through an uncached and a
	// warm cache. The images are the cases' output images.
	var imgs []*pmem.Image
	for i := 0; i < len(cases) && len(imgs) < sc.replayImages/2; i++ {
		if res := executor.Run(cases[i], executor.Options{}); res.Image != nil {
			imgs = append(imgs, res.Image)
		}
	}
	if len(imgs) == 0 {
		return fmt.Errorf("replay: no case produced an image")
	}
	var putNS time.Duration
	var store *imgstore.Store
	var ids []imgstore.ID
	sp = tr.begin("replay.imgstore.Store.Put", root, -1)
	for i := 0; i < n; i++ {
		if i%len(imgs) == 0 {
			store, ids = imgstore.New(0), ids[:0]
		}
		t0 := time.Now()
		id, _, err := store.Put(imgs[i%len(imgs)])
		putNS += time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay: put: %w", err)
		}
		ids = append(ids, id)
	}
	tr.end(sp)
	v["imgstore.put_ns"] = float64(putNS.Nanoseconds()) / float64(n)

	for _, leg := range []struct {
		name  string
		cache *imgstore.Cache
	}{{"imgstore.get_miss_ns", store.NewCache(0)}, {"imgstore.get_hit_ns", store.NewCache(len(ids))}} {
		for _, id := range ids { // fills the warm cache; the uncached one decodes every time
			if _, err := leg.cache.Get(id, nil); err != nil {
				return fmt.Errorf("replay: get: %w", err)
			}
		}
		sp = tr.begin("replay."+leg.name, root, -1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := leg.cache.Get(ids[i%len(ids)], nil); err != nil {
				return fmt.Errorf("replay: get: %w", err)
			}
		}
		v[leg.name] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		tr.end(sp)
	}
	return nil
}

// copyImage returns an image that owns its bytes.
func copyImage(img *pmem.Image) *pmem.Image {
	return &pmem.Image{UUID: img.UUID, Layout: img.Layout, Data: append([]byte(nil), img.Data...)}
}
