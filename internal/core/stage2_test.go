package core

import (
	"testing"

	"pmfuzz/internal/fuzz"
	"pmfuzz/internal/imgstore"
)

// id fabricates a distinct image content ID for promotion-policy tests.
func id(b byte) imgstore.ID {
	var v imgstore.ID
	v[0] = b
	return v
}

// TestPromotionPolicy is the table-driven spec of the stage-2 promotion
// policy: which crash images enter stage 2, in which order.
func TestPromotionPolicy(t *testing.T) {
	type cand struct {
		img          byte
		crash        bool
		hasImage     bool
		newPM        bool
		oracle       bool
		parentOracle bool
	}
	cases := []struct {
		name string
		in   []cand
		max  int
		// want is the promoted order as img bytes.
		want []byte
		// pending is what stays queued for the next round.
		pending []byte
	}{
		{
			name: "novel PM-path admits promote in discovery order",
			in:   []cand{{img: 1, crash: true, hasImage: true, newPM: true}, {img: 2, crash: true, hasImage: true, newPM: true}},
			max:  4, want: []byte{1, 2},
		},
		{
			name: "oracle-flagged outranks novel PM path",
			in:   []cand{{img: 1, crash: true, hasImage: true, newPM: true}, {img: 2, crash: true, hasImage: true, newPM: true, oracle: true}},
			max:  4, want: []byte{2, 1},
		},
		{
			name: "oracle flag on the parent promotes the brood",
			in:   []cand{{img: 1, crash: true, hasImage: true, newPM: true}, {img: 2, crash: true, hasImage: true, newPM: true, parentOracle: true}},
			max:  4, want: []byte{2, 1},
		},
		{
			name: "duplicate images considered once",
			in:   []cand{{img: 1, crash: true, hasImage: true, newPM: true}, {img: 1, crash: true, hasImage: true, newPM: true, oracle: true}},
			max:  4, want: []byte{1},
		},
		{
			name: "non-crash and imageless entries never promote",
			in:   []cand{{img: 1, crash: false, hasImage: true, newPM: true}, {img: 2, crash: true, hasImage: false, newPM: true}},
			max:  4, want: nil,
		},
		{
			name: "uninteresting crash images are discarded, not queued",
			in:   []cand{{img: 1, crash: true, hasImage: true}},
			max:  4, want: nil, pending: nil,
		},
		{
			name: "overflow stays pending for the next round",
			in: []cand{
				{img: 1, crash: true, hasImage: true, newPM: true},
				{img: 2, crash: true, hasImage: true, newPM: true, oracle: true},
				{img: 3, crash: true, hasImage: true, newPM: true},
			},
			max: 2, want: []byte{2, 1}, pending: []byte{3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := fuzz.NewQueue(1)
			p := newPromoter(false, nil)
			for _, c := range tc.in {
				var parentID = -1
				if c.parentOracle {
					par := &fuzz.Entry{Input: []byte("p"), OracleFlagged: true}
					q.Add(par)
					parentID = par.ID
				}
				e := &fuzz.Entry{
					Input:         []byte{c.img},
					ImageID:       id(c.img),
					HasImage:      c.hasImage,
					IsCrashImage:  c.crash,
					NewPM:         c.newPM,
					OracleFlagged: c.oracle,
					ParentID:      parentID,
				}
				q.Add(e)
				p.consider(e)
			}
			got := p.promote(q, tc.max)
			if len(got) != len(tc.want) {
				t.Fatalf("promoted %d entries, want %d", len(got), len(tc.want))
			}
			for i, e := range got {
				if e.ImageID != id(tc.want[i]) {
					t.Fatalf("promoted[%d] = image %x, want %x", i, e.ImageID[0], tc.want[i])
				}
			}
			if len(p.pending) != len(tc.pending) {
				t.Fatalf("pending %d entries, want %d", len(p.pending), len(tc.pending))
			}
			for i, e := range p.pending {
				if e.ImageID != id(tc.pending[i]) {
					t.Fatalf("pending[%d] = image %x, want %x", i, e.ImageID[0], tc.pending[i])
				}
			}
			// A promoted image never re-enters: re-considering it is a no-op.
			for _, e := range got {
				if p.consider(e) {
					t.Fatalf("already-promoted image %x re-accepted", e.ImageID[0])
				}
			}
		})
	}
}

// TestPromotionDeterministicOrder re-runs the same candidate stream and
// requires identical promotion order — the policy is a pure function of
// the discovery sequence.
func TestPromotionDeterministicOrder(t *testing.T) {
	build := func() []*fuzz.Entry {
		q := fuzz.NewQueue(1)
		p := newPromoter(false, nil)
		for i := 0; i < 10; i++ {
			e := &fuzz.Entry{
				Input:         []byte{byte(i)},
				ImageID:       id(byte(i)),
				HasImage:      true,
				IsCrashImage:  true,
				NewPM:         true,
				OracleFlagged: i%3 == 0,
				ParentID:      -1,
			}
			q.Add(e)
			p.consider(e)
		}
		return p.promote(q, 10)
	}
	a, b := build(), build()
	if len(a) != len(b) || len(a) != 10 {
		t.Fatalf("promotion counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ImageID != b[i].ImageID {
			t.Fatalf("promotion order diverged at %d", i)
		}
	}
	// Oracle-flagged candidates (0,3,6,9) strictly precede the rest.
	for i, e := range a {
		wantOracle := i < 4
		if e.OracleFlagged != wantOracle {
			t.Fatalf("promoted[%d] oracle=%v, want %v", i, e.OracleFlagged, wantOracle)
		}
	}
}

// runTwoStage runs one two-stage session: stage 1 with the given budget,
// then up to maxCampaigns sub-campaigns of perBudget each.
func runTwoStage(t *testing.T, workload string, budget, perBudget int64, maxCampaigns int, seed int64) *Result {
	t.Helper()
	cfg, err := DefaultConfig(workload, PMFuzzAll, budget, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	cfg.Stage2Workers = 1
	cfg.Stage2BudgetNS = perBudget
	cfg.Stage2MaxCampaigns = maxCampaigns
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f.Run()
}

// TestTwoStageRunsCampaigns is the pipeline smoke test: a short btree
// session must actually promote crash images, run sub-campaigns past the
// stage-1 budget, and label the campaign corpus stage=2.
func TestTwoStageRunsCampaigns(t *testing.T) {
	res := runTwoStage(t, "btree", 40_000_000, 10_000_000, 2, 42)
	if res.Stage2Campaigns == 0 {
		t.Fatalf("no stage-2 campaigns ran")
	}
	if res.Stage2Execs == 0 {
		t.Fatalf("stage 2 consumed no executions")
	}
	if res.SimNS <= 40_000_000 {
		t.Fatalf("stage 2 did not extend the time axis: simns=%d", res.SimNS)
	}
	stage2 := 0
	for _, e := range res.Queue.Entries() {
		if e.Stage == 2 && e.Iter > 0 {
			stage2++
		}
	}
	if stage2 == 0 {
		t.Fatalf("no stage=2,iter=N corpus entries")
	}
	if res.Recovery == nil || res.RecoverySites == 0 {
		t.Fatalf("two-stage session tracked no recovery coverage (sites=%d)", res.RecoverySites)
	}
}

// TestTwoStageDeterministic re-runs an identical two-stage config and
// requires a byte-identical trajectory — the determinism contract
// extended to (Seed, Workers, stage budgets).
func TestTwoStageDeterministic(t *testing.T) {
	a := runTwoStage(t, "btree", 40_000_000, 10_000_000, 3, 42)
	b := runTwoStage(t, "btree", 40_000_000, 10_000_000, 3, 42)
	if a.Execs != b.Execs || a.PMPaths != b.PMPaths || a.SimNS != b.SimNS ||
		a.Stage2Campaigns != b.Stage2Campaigns || a.Stage2Execs != b.Stage2Execs ||
		a.Queue.Len() != b.Queue.Len() || a.Store.Len() != b.Store.Len() ||
		a.RecoverySites != b.RecoverySites || len(a.Faults) != len(b.Faults) {
		t.Fatalf("two-stage sessions diverged:\n a=%+v\n b=%+v",
			summary(a), summary(b))
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series lengths diverged: %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatalf("series[%d] diverged: %+v vs %+v", i, a.Series[i], b.Series[i])
		}
	}
}

// TestTwoStageParallelDeterministic extends the contract to per-stage
// core budgets: stage 1 on two workers, campaigns on two workers.
func TestTwoStageParallelDeterministic(t *testing.T) {
	run := func() *Result {
		cfg, err := DefaultConfig("btree", PMFuzzAll, 40_000_000, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 2
		cfg.Stage1Workers = 2
		cfg.Stage2Workers = 2
		cfg.Stage2BudgetNS = 8_000_000
		cfg.Stage2MaxCampaigns = 2
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return f.Run()
	}
	a, b := run(), run()
	if a.Execs != b.Execs || a.PMPaths != b.PMPaths || a.SimNS != b.SimNS ||
		a.Stage2Campaigns != b.Stage2Campaigns || a.Stage2Execs != b.Stage2Execs ||
		a.Queue.Len() != b.Queue.Len() || a.Store.Len() != b.Store.Len() {
		t.Fatalf("parallel two-stage sessions diverged:\n a=%+v\n b=%+v",
			summary(a), summary(b))
	}
}

func summary(r *Result) map[string]int64 {
	return map[string]int64{
		"execs": int64(r.Execs), "pmpaths": int64(r.PMPaths), "simns": r.SimNS,
		"campaigns": int64(r.Stage2Campaigns), "s2execs": int64(r.Stage2Execs),
		"queue": int64(r.Queue.Len()), "images": int64(r.Store.Len()),
		"recsites": int64(r.RecoverySites), "faults": int64(len(r.Faults)),
	}
}

// TestStage2DisabledMatchesGolden pins the compatibility half of the
// determinism contract: Stage2Workers=0 (the -disable-stage2 path) must
// reproduce the Workers=1 golden trajectory byte-for-byte, even with
// recovery tracking on (it is strictly read-only).
func TestStage2DisabledMatchesGolden(t *testing.T) {
	cfg, err := DefaultConfig("btree", PMFuzzAll, 120_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	cfg.Stage2Workers = 0 // -disable-stage2
	cfg.TrackRecovery = true
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	if res.Execs != 722 || res.PMPaths != 340 || res.SimNS != 120132891 {
		t.Fatalf("summary diverged from golden: execs=%d pmpaths=%d simns=%d, want 722/340/120132891",
			res.Execs, res.PMPaths, res.SimNS)
	}
	if res.Queue.Len() != 331 || res.Store.Len() != 243 {
		t.Fatalf("corpus diverged from golden: queue=%d images=%d, want 331/243",
			res.Queue.Len(), res.Store.Len())
	}
	if len(res.Series) != len(goldenBtreeSeries) {
		t.Fatalf("series length = %d, want %d", len(res.Series), len(goldenBtreeSeries))
	}
	for i, want := range goldenBtreeSeries {
		if res.Series[i] != want {
			t.Fatalf("series[%d] = %+v, want %+v", i, res.Series[i], want)
		}
	}
	if res.Stage2Campaigns != 0 || res.Stage2Execs != 0 {
		t.Fatalf("stage 2 ran while disabled: campaigns=%d execs=%d", res.Stage2Campaigns, res.Stage2Execs)
	}
}

// TestStage2ReachesRecoverySites is the payoff demonstration: a
// two-stage session covers recovery-path PM coverage states an
// equal-total-budget stage-1-only session never reaches, because only
// stage 2 re-executes the program's recovery path from promoted crash
// images and keeps fuzzing from the recovered state.
func TestStage2ReachesRecoverySites(t *testing.T) {
	two := runTwoStage(t, "btree", 40_000_000, 10_000_000, 3, 42)
	if two.Recovery == nil {
		t.Fatalf("two-stage session tracked no recovery coverage")
	}

	// The stage-1-only baseline gets the SAME total simulated budget the
	// two-stage session consumed (stage 1 + all campaigns), with recovery
	// tracking on.
	cfg, err := DefaultConfig("btree", PMFuzzAll, two.SimNS, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	cfg.TrackRecovery = true
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := f.Run()
	if base.Recovery == nil {
		t.Fatalf("baseline tracked no recovery coverage")
	}
	novel := two.Recovery.NewStatesOver(base.Recovery)
	if novel == 0 {
		t.Fatalf("stage 2 reached no recovery-path coverage states beyond the stage-1-only baseline (two=%d base=%d)",
			two.RecoverySites, base.RecoverySites)
	}
	t.Logf("recovery coverage: two-stage=%d states, stage-1-only=%d states, novel-to-stage-2=%d",
		two.RecoverySites, base.RecoverySites, novel)
}

// TestPromotionClassDedup (satellite of the sweep-pruning layer): with
// class dedup active, the second crash image in an already-promoted
// behavioral class is dropped even though its image ID is new; with
// dedup off (or an unclassified key of 0) both pass. The store's class
// counters tally the decisions.
func TestPromotionClassDedup(t *testing.T) {
	entry := func(img byte, classKey uint64) *fuzz.Entry {
		return &fuzz.Entry{
			Input: []byte{img}, ImageID: id(img), HasImage: true,
			IsCrashImage: true, NewPM: true, ClassKey: classKey,
		}
	}

	st := imgstore.New(4)
	p := newPromoter(true, st)
	if !p.consider(entry(1, 42)) {
		t.Fatalf("first image of class 42 rejected")
	}
	if p.consider(entry(2, 42)) {
		t.Fatalf("second image of class 42 accepted despite class dedup")
	}
	if !p.consider(entry(3, 43)) {
		t.Fatalf("fresh class 43 rejected")
	}
	// Key 0 marks unclassified entries; they are never class-deduped.
	if !p.consider(entry(4, 0)) || !p.consider(entry(5, 0)) {
		t.Fatalf("unclassified entries must not be deduped")
	}
	s := st.Stats()
	if s.ClassHits != 1 || s.ClassMisses != 2 {
		t.Fatalf("class counters = %d hits / %d misses, want 1/2", s.ClassHits, s.ClassMisses)
	}

	// With dedup disabled every distinct image ID passes.
	off := newPromoter(false, nil)
	if !off.consider(entry(6, 42)) || !off.consider(entry(7, 42)) {
		t.Fatalf("class dedup leaked into the disabled promoter")
	}
}
