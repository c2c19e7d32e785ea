package core

import (
	"strings"
	"testing"

	"pmfuzz/internal/executor"
	"pmfuzz/internal/imgstore"
	"pmfuzz/internal/workloads/bugs"
)

// goldenBtreeSeries is the full coverage time series of the reference
// Workers=1 session (btree, PMFuzzAll, 120 simulated ms, seed 42),
// captured when Workers=1 moved onto the lease engine (DESIGN.md records
// the old and new numbers). Samples carry the merged clock after the
// batch that crossed their interval, so one long lease can stamp two
// samples alike. PM site IDs are derived from source locations
// precisely so this table survives unrelated code changes elsewhere in
// the binary.
var goldenBtreeSeries = []Sample{
	{SimNS: 7664953, Execs: 22, PMPaths: 8, BranchCov: 36, QueueLen: 42, Images: 30},
	{SimNS: 7664953, Execs: 40, PMPaths: 14, BranchCov: 43, QueueLen: 62, Images: 45},
	{SimNS: 12432596, Execs: 60, PMPaths: 18, BranchCov: 46, QueueLen: 81, Images: 60},
	{SimNS: 18683596, Execs: 82, PMPaths: 23, BranchCov: 51, QueueLen: 108, Images: 82},
	{SimNS: 18683596, Execs: 100, PMPaths: 29, BranchCov: 53, QueueLen: 135, Images: 104},
	{SimNS: 23312848, Execs: 122, PMPaths: 38, BranchCov: 59, QueueLen: 169, Images: 132},
	{SimNS: 27053131, Execs: 140, PMPaths: 46, BranchCov: 60, QueueLen: 177, Images: 137},
	{SimNS: 30972583, Execs: 160, PMPaths: 51, BranchCov: 67, QueueLen: 180, Images: 137},
	{SimNS: 34966413, Execs: 180, PMPaths: 59, BranchCov: 67, QueueLen: 189, Images: 143},
	{SimNS: 34966413, Execs: 200, PMPaths: 67, BranchCov: 70, QueueLen: 192, Images: 143},
	{SimNS: 40444881, Execs: 220, PMPaths: 72, BranchCov: 71, QueueLen: 194, Images: 143},
	{SimNS: 44030084, Execs: 240, PMPaths: 77, BranchCov: 73, QueueLen: 195, Images: 143},
	{SimNS: 46539227, Execs: 260, PMPaths: 85, BranchCov: 78, QueueLen: 202, Images: 146},
	{SimNS: 49827900, Execs: 280, PMPaths: 100, BranchCov: 84, QueueLen: 209, Images: 149},
	{SimNS: 52762866, Execs: 300, PMPaths: 112, BranchCov: 85, QueueLen: 212, Images: 151},
	{SimNS: 55257612, Execs: 320, PMPaths: 120, BranchCov: 85, QueueLen: 213, Images: 151},
	{SimNS: 58707572, Execs: 340, PMPaths: 133, BranchCov: 87, QueueLen: 220, Images: 155},
	{SimNS: 61236567, Execs: 360, PMPaths: 143, BranchCov: 88, QueueLen: 223, Images: 157},
	{SimNS: 64193977, Execs: 380, PMPaths: 152, BranchCov: 90, QueueLen: 229, Images: 162},
	{SimNS: 70078475, Execs: 400, PMPaths: 161, BranchCov: 90, QueueLen: 229, Images: 162},
	{SimNS: 73700567, Execs: 422, PMPaths: 170, BranchCov: 94, QueueLen: 239, Images: 169},
	{SimNS: 73700567, Execs: 440, PMPaths: 179, BranchCov: 100, QueueLen: 251, Images: 179},
	{SimNS: 79680819, Execs: 460, PMPaths: 190, BranchCov: 100, QueueLen: 256, Images: 183},
	{SimNS: 82729849, Execs: 480, PMPaths: 204, BranchCov: 105, QueueLen: 268, Images: 192},
	{SimNS: 85739196, Execs: 500, PMPaths: 219, BranchCov: 105, QueueLen: 274, Images: 197},
	{SimNS: 88274721, Execs: 520, PMPaths: 231, BranchCov: 105, QueueLen: 274, Images: 197},
	{SimNS: 90842655, Execs: 540, PMPaths: 244, BranchCov: 105, QueueLen: 274, Images: 197},
	{SimNS: 93390923, Execs: 560, PMPaths: 255, BranchCov: 105, QueueLen: 274, Images: 197},
	{SimNS: 96744220, Execs: 580, PMPaths: 264, BranchCov: 105, QueueLen: 284, Images: 205},
	{SimNS: 100572904, Execs: 600, PMPaths: 273, BranchCov: 105, QueueLen: 303, Images: 221},
	{SimNS: 103481241, Execs: 620, PMPaths: 287, BranchCov: 105, QueueLen: 310, Images: 227},
	{SimNS: 106879146, Execs: 640, PMPaths: 299, BranchCov: 105, QueueLen: 323, Images: 238},
	{SimNS: 112143417, Execs: 660, PMPaths: 315, BranchCov: 105, QueueLen: 323, Images: 238},
	{SimNS: 115098929, Execs: 680, PMPaths: 327, BranchCov: 106, QueueLen: 330, Images: 243},
	{SimNS: 117609237, Execs: 700, PMPaths: 335, BranchCov: 106, QueueLen: 330, Images: 243},
	{SimNS: 120132891, Execs: 720, PMPaths: 339, BranchCov: 107, QueueLen: 331, Images: 243},
	{SimNS: 120132891, Execs: 722, PMPaths: 340, BranchCov: 107, QueueLen: 331, Images: 243},
}

// runWorkers runs one session with an explicit worker count.
func runWorkers(t *testing.T, workload string, budget int64, workers int, bg *bugs.Set) *Result {
	t.Helper()
	cfg, err := DefaultConfig(workload, PMFuzzAll, budget, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	f, err := New(cfg, bg)
	if err != nil {
		t.Fatal(err)
	}
	return f.Run()
}

func TestWorkersOneGolden(t *testing.T) {
	res := runWorkers(t, "btree", 120_000_000, 1, nil)
	if res.Execs != 722 || res.PMPaths != 340 || res.SimNS != 120132891 {
		t.Fatalf("summary diverged from golden: execs=%d pmpaths=%d simns=%d, want 722/340/120132891",
			res.Execs, res.PMPaths, res.SimNS)
	}
	if res.Queue.Len() != 331 || res.Store.Len() != 243 {
		t.Fatalf("corpus diverged from golden: queue=%d images=%d, want 331/243",
			res.Queue.Len(), res.Store.Len())
	}
	if len(res.Faults) != 0 {
		t.Fatalf("unexpected faults: %d", len(res.Faults))
	}
	if len(res.Series) != len(goldenBtreeSeries) {
		t.Fatalf("series length = %d, want %d", len(res.Series), len(goldenBtreeSeries))
	}
	for i, want := range goldenBtreeSeries {
		if res.Series[i] != want {
			t.Fatalf("series[%d] = %+v, want %+v", i, res.Series[i], want)
		}
	}
}

func TestWorkersOneMatchesFaultGolden(t *testing.T) {
	res := runWorkers(t, "hashmap-tx", 300_000_000, 1,
		bugs.NewSet().EnableReal(bugs.Bug1HashmapTXCreateNotRetried))
	if res.Execs != 1877 || res.PMPaths != 827 || res.Queue.Len() != 398 {
		t.Fatalf("summary diverged from golden: execs=%d pmpaths=%d queue=%d, want 1877/827/398",
			res.Execs, res.PMPaths, res.Queue.Len())
	}
	if len(res.Faults) != 1 {
		t.Fatalf("fault count = %d, want 1", len(res.Faults))
	}
	f := res.Faults[0]
	if f.Msg != "panic: pmemobj: null object dereference" || f.Execs != 328 || f.SimNS != 56354412 {
		t.Fatalf("fault diverged from golden: msg=%q execs=%d simns=%d", f.Msg, f.Execs, f.SimNS)
	}
}

func TestParallelDeterministic(t *testing.T) {
	// The fleet must replay identically for a fixed (Seed, Workers) pair:
	// scheduling lives in the coordinator, worker RNGs are derived from
	// the seed and worker ID, and results merge in worker-round order.
	a := runWorkers(t, "btree", 60_000_000, 4, nil)
	b := runWorkers(t, "btree", 60_000_000, 4, nil)
	if a.Execs != b.Execs || a.PMPaths != b.PMPaths || a.SimNS != b.SimNS ||
		a.Queue.Len() != b.Queue.Len() || a.Store.Len() != b.Store.Len() {
		t.Fatalf("parallel sessions diverged: execs %d/%d paths %d/%d simns %d/%d queue %d/%d images %d/%d",
			a.Execs, b.Execs, a.PMPaths, b.PMPaths, a.SimNS, b.SimNS,
			a.Queue.Len(), b.Queue.Len(), a.Store.Len(), b.Store.Len())
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

func TestSweepParallelDeterminism(t *testing.T) {
	// The single-pass crash-image sweep runs inside worker goroutines on
	// private clock shards, and its delta materializations must keep the
	// fleet a pure function of (Seed, Workers): two identical two-worker
	// sessions must agree on every summary statistic, and the sweep's
	// delta-encoded crash images must actually reach the shared store.
	a := runWorkers(t, "hashmap-tx", 80_000_000, 2, nil)
	b := runWorkers(t, "hashmap-tx", 80_000_000, 2, nil)
	if a.Execs != b.Execs || a.PMPaths != b.PMPaths || a.SimNS != b.SimNS ||
		a.Queue.Len() != b.Queue.Len() || a.Store.Len() != b.Store.Len() {
		t.Fatalf("sweep fleet diverged: execs %d/%d paths %d/%d simns %d/%d queue %d/%d images %d/%d",
			a.Execs, b.Execs, a.PMPaths, b.PMPaths, a.SimNS, b.SimNS,
			a.Queue.Len(), b.Queue.Len(), a.Store.Len(), b.Store.Len())
	}
	crash := 0
	for _, e := range a.Queue.Entries() {
		if e.IsCrashImage {
			crash++
		}
	}
	if crash == 0 {
		t.Fatalf("no crash-image entries from the parallel sweep")
	}
	if st := a.Store.Stats(); st.DeltaPuts == 0 {
		t.Fatalf("no delta-encoded crash images stored (stats: %+v)", st)
	}
}

func TestParallelCoversAtLeastSerialPMPaths(t *testing.T) {
	// Four workers each burn the full simulated budget on a private clock
	// shard (the paper's fleet semantics: N machines, equal wall clock),
	// so within the same merged simulated budget the fleet must cover at
	// least as many PM paths as one instance.
	serial := runWorkers(t, "btree", 120_000_000, 1, nil)
	fleet := runWorkers(t, "btree", 120_000_000, 4, nil)
	if fleet.PMPaths < serial.PMPaths {
		t.Fatalf("4-worker fleet covered %d PM paths < serial %d", fleet.PMPaths, serial.PMPaths)
	}
	if fleet.Execs < 2*serial.Execs {
		t.Fatalf("4-worker fleet ran %d execs, want >= 2x serial %d", fleet.Execs, serial.Execs)
	}
}

func TestParallelFindsFault(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker bug-finding session is slow; run without -short")
	}
	res := runWorkers(t, "hashmap-tx", 300_000_000, 4,
		bugs.NewSet().EnableReal(bugs.Bug1HashmapTXCreateNotRetried))
	found := false
	for _, f := range res.Faults {
		if strings.Contains(f.Msg, "null object dereference") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet missed the Bug 1 fault; faults: %d", len(res.Faults))
	}
}

func TestWorkersZeroSelectsAutomatic(t *testing.T) {
	// Workers=0 must resolve to GOMAXPROCS and complete normally.
	res := runWorkers(t, "btree", 20_000_000, 0, nil)
	if res.Execs == 0 {
		t.Fatalf("no executions with automatic worker count")
	}
	if res.SimNS < 20_000_000 {
		t.Fatalf("stopped before budget: %d", res.SimNS)
	}
}

func TestMergedClockAdvances(t *testing.T) {
	// The coordinator's clock is the fleet's merged time axis: SimNow, as
	// the campaign sync layer reads it between rounds, must track the
	// merged clock of a multi-worker session, and a foreign seed grafted
	// mid-run must be stamped with it.
	cfg, err := DefaultConfig("btree", PMFuzzAll, 20_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	seed := f.CorpusEntries()[0].Input
	var reads []int64
	graft := -1
	f.SetSyncHook(func() {
		reads = append(reads, f.SimNow())
		if len(reads) == 5 {
			if graft, err = f.AddForeignSeed(seed, imgstore.ID{}, false, nil); err != nil {
				t.Error(err)
			}
		}
	})
	res := f.Run()
	if len(reads) < 5 {
		t.Fatalf("sync hook ran %d times, want at least 5", len(reads))
	}
	for i := 1; i < len(reads); i++ {
		if reads[i] < reads[i-1] {
			t.Fatalf("SimNow went backwards at hook call %d: %d -> %d", i, reads[i-1], reads[i])
		}
	}
	if reads[1] <= 0 {
		t.Fatalf("SimNow = %d after the first round, want > 0", reads[1])
	}
	if last := reads[len(reads)-1]; last != res.SimNS {
		t.Fatalf("final SimNow = %d, want Result.SimNS %d", last, res.SimNS)
	}
	if e := res.Queue.Get(graft); e == nil || e.FoundSimNS <= 0 {
		t.Fatalf("grafted seed %d not stamped with the merged clock: %+v", graft, e)
	}
}

func TestProbFailPlacementsDiffer(t *testing.T) {
	// Probabilistic crash placements are seeded from an execution count
	// that advances across outcomes, so one worker harvesting the same
	// test case twice places its crashes differently.
	cfg, err := DefaultConfig("btree", PMFuzzAll, 1_000_000_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxBarrierImages = 1
	cfg.ProbFailRate = 0.02
	cfg.ProbFailSeeds = 1
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(f, 0)
	tc := executor.TestCase{Workload: cfg.Workload, Input: f.seedInput, Seed: cfg.Seed}
	res := executor.Run(tc, executor.Options{Clock: w.clock, MaxCommands: cfg.MaxCommands})
	var placed [2][32]byte
	for k := range placed {
		o := &execOutcome{execs: 1}
		w.harvestCrashImages(tc, res, o)
		if len(o.crashImages) != 2 {
			t.Fatalf("harvest %d: %d crash images, want one barrier and one probabilistic", k, len(o.crashImages))
		}
		placed[k] = o.crashImages[1].Hash()
	}
	if placed[0] == placed[1] {
		t.Fatalf("both harvests placed the probabilistic crash identically (image %x)", placed[0][:8])
	}
}
