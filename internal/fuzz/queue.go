package fuzz

import (
	"math/rand"

	"pmfuzz/internal/imgstore"
)

// Favored levels per Algorithm 2 of the paper.
const (
	// FavoredLow: no new PM counter-map content; kept only when branch
	// coverage wants it.
	FavoredLow = 0
	// FavoredMedium: significantly different counter values (diffCounter).
	FavoredMedium = 1
	// FavoredHigh: unseen PM counter-map locations.
	FavoredHigh = 2
)

// Entry is one queued test case: input commands plus the PM image they
// execute on (the paper's two-part test cases).
type Entry struct {
	// ID is the entry's queue index.
	ID int
	// Input is the command stream.
	Input []byte
	// ImageID names the starting PM image in the store; HasImage is
	// false for the empty root image of Figure 12.
	ImageID  imgstore.ID
	HasImage bool
	// IsCrashImage marks entries whose image resulted from an injected
	// failure.
	IsCrashImage bool
	// ParentID is the entry this one was derived from (-1 for seeds),
	// forming the test-case tree of §4.6.
	ParentID int
	// Depth is the distance from the root image.
	Depth int
	// Favored is the Algorithm 2 priority.
	Favored int
	// NewBranch marks entries kept because they exposed new branch
	// coverage (AFL++'s own criterion).
	NewBranch bool
	// NewPM marks entries that exposed new PM-path coverage.
	NewPM bool
	// Selections counts how many times the scheduler picked the entry.
	Selections int
	// FoundSimNS is the simulated time the entry was added, used for
	// the paper's time-to-detection measurements (§5.4.1).
	FoundSimNS int64
	// Stage records which pipeline stage owns the entry: 0/1 for the
	// stage-1 input-fuzzing loop, 2 for entries routed to (or generated
	// by) stage-2 crash-image sub-campaigns. With stage-2 routing
	// enabled (SetStage2Routing), stage-2 entries are invisible to the
	// stage-1 scheduler.
	Stage int
	// Iter is the stage-2 promotion round the entry belongs to (the
	// original tool's stage=2,iter=N output directories); 0 in stage 1.
	Iter int
	// OracleFlagged marks entries whose test case the differential
	// oracle flagged with a crash-consistency violation — their crash
	// images are the highest-value stage-2 promotion candidates.
	OracleFlagged bool
	// ClassKey is the crash image's behavioral equivalence-class key
	// (executor.CrashClassKey) for crash-image entries; 0 means
	// unclassified. Stage-2 promotion dedups candidates by this key when
	// sweep pruning is active, so behaviorally identical crash states
	// spawn at most one sub-campaign.
	ClassKey uint64
	// Foreign marks entries imported from a peer fuzzer through the
	// campaign sync directory. Foreign entries are scheduled like local
	// ones but are never re-published, so a fleet of N peers does not
	// echo the same test case around the ring.
	Foreign bool
}

// Queue holds the corpus and implements favored-first scheduling: high
// priority entries are always fuzzed when their turn comes, medium ones
// usually, and low ones only when branch coverage favors them — the
// paper's "discards low-priority cases unless AFL++'s branch coverage
// logic favors them".
type Queue struct {
	entries []*Entry
	cursor  int
	seed    int64
	src     *countingSource
	rng     *rand.Rand
	// routeStage2 hides Stage==2 entries from Next/Lease: the two-stage
	// session fuzzer routes crash images to the stage-2 promoter instead
	// of fuzzing them inline. Off by default, so single-stage sessions
	// (and imported corpora replayed without stage 2) schedule every
	// entry exactly as before.
	routeStage2 bool
	// schedulable counts entries Next may return (all of them unless
	// routing is on), so the skip loops terminate when the whole corpus
	// is routed out.
	schedulable int
}

// NewQueue creates an empty queue with a seeded scheduler.
func NewQueue(seed int64) *Queue {
	src := newCountingSource(seed)
	return &Queue{seed: seed, src: src, rng: rand.New(src)}
}

// SetStage2Routing toggles stage-2 routing (see Queue.routeStage2).
// Must be set before scheduling starts; flipping it mid-session would
// change which entries the cursor skips.
func (q *Queue) SetStage2Routing(on bool) { q.routeStage2 = on }

// routed reports that the entry is hidden from the stage-1 scheduler.
func (q *Queue) routed(e *Entry) bool { return q.routeStage2 && e.Stage == 2 }

// Add appends an entry and assigns its ID.
func (q *Queue) Add(e *Entry) *Entry {
	e.ID = len(q.entries)
	q.entries = append(q.entries, e)
	if !q.routed(e) {
		q.schedulable++
	}
	return e
}

// Len returns the corpus size.
func (q *Queue) Len() int { return len(q.entries) }

// Entries exposes the corpus (read-only use).
func (q *Queue) Entries() []*Entry { return q.entries }

// Get returns entry by ID.
func (q *Queue) Get(id int) *Entry {
	if id < 0 || id >= len(q.entries) {
		return nil
	}
	return q.entries[id]
}

// Next returns the next entry to fuzz, cycling through the corpus with
// favored-weighted skipping. Half the time it instead exploits the
// newest never-selected high-priority entry — freshly generated images
// carry the deepest persistent states, and descending into them is what
// makes incremental image generation accumulate (§4.5 step ⑤: generated
// images are reused as inputs in the next iteration). It always
// terminates as long as the queue is non-empty.
func (q *Queue) Next() *Entry {
	if len(q.entries) == 0 || q.schedulable == 0 {
		return nil
	}
	if q.rng.Intn(2) == 0 {
		for i := len(q.entries) - 1; i >= 0; i-- {
			e := q.entries[i]
			if q.routed(e) {
				continue
			}
			if e.Favored >= FavoredHigh && e.Selections == 0 {
				e.Selections++
				return e
			}
		}
	}
	for tries := 0; tries < 4*len(q.entries); tries++ {
		e := q.entries[q.cursor%len(q.entries)]
		q.cursor++
		if q.routed(e) {
			// Routed entries advance the cursor without consuming the
			// RNG, so the skip is deterministic.
			continue
		}
		switch {
		case e.Favored >= FavoredHigh:
			e.Selections++
			return e
		case e.Favored == FavoredMedium:
			if q.rng.Intn(2) == 0 {
				e.Selections++
				return e
			}
		default:
			// Low priority survives only on branch-coverage merit, and
			// even then rarely.
			if e.NewBranch && q.rng.Intn(4) == 0 {
				e.Selections++
				return e
			}
		}
	}
	// Everything was skipped this pass; fall back to round-robin over
	// the schedulable entries.
	for {
		e := q.entries[q.cursor%len(q.entries)]
		q.cursor++
		if q.routed(e) {
			continue
		}
		e.Selections++
		return e
	}
}

// ObsStats summarizes corpus composition for telemetry in one pass:
// the favored mix, crash-image share, AFL's pending counts (entries the
// scheduler has never selected), and the deepest derivation chain.
type ObsStats struct {
	FavLow, FavMed, FavHigh   int
	CrashImages               int
	PendingFavs, PendingTotal int
	MaxDepth                  int
	// Stage2 counts entries owned by stage 2 (routed promotion
	// candidates plus sub-campaign corpora merged back).
	Stage2 int
}

// ObsStats scans the corpus once and returns its composition.
func (q *Queue) ObsStats() ObsStats {
	var s ObsStats
	for _, e := range q.entries {
		switch {
		case e.Favored >= FavoredHigh:
			s.FavHigh++
		case e.Favored == FavoredMedium:
			s.FavMed++
		default:
			s.FavLow++
		}
		if e.IsCrashImage {
			s.CrashImages++
		}
		if e.Stage == 2 {
			s.Stage2++
		}
		if e.Selections == 0 {
			s.PendingTotal++
			if e.Favored >= FavoredHigh {
				s.PendingFavs++
			}
		}
		if e.Depth > s.MaxDepth {
			s.MaxDepth = e.Depth
		}
	}
	return s
}

// Random returns a uniformly random entry (for splicing).
func (q *Queue) Random() *Entry {
	if len(q.entries) == 0 {
		return nil
	}
	return q.entries[q.rng.Intn(len(q.entries))]
}

// Lease is a batch of fuzzing work granted to one worker: the scheduled
// parent entry, how many children to derive from it, and each child's
// splice partner. The queue stays owned by the coordinator goroutine —
// workers receive leases and never touch queue state — so every
// scheduling decision (entry selection, energy, splice or havoc, splice
// partners) is drawn from the queue's single RNG in coordinator order
// and a session replays deterministically for a fixed (Seed, Workers)
// pair.
type Lease struct {
	// Parent is the scheduled entry. Workers treat it as read-only; the
	// coordinator only mutates scheduling bookkeeping fields that
	// workers never read.
	Parent *Entry
	// Energy is the number of children to derive (already scaled by the
	// entry's Favored level).
	Energy int
	// Splices holds one splice partner input per child slot; a nil slot
	// means havoc (the 1-in-4 splice coin came up havoc, or the corpus
	// was too small to splice).
	Splices [][]byte
}

// Lease schedules the next entry and packages it as a batch lease of
// energyBase << Favored children. It returns nil when the queue is
// empty.
func (q *Queue) Lease(energyBase int) *Lease {
	e := q.Next()
	if e == nil {
		return nil
	}
	l := &Lease{
		Parent:  e,
		Energy:  energyBase << uint(e.Favored),
		Splices: make([][]byte, energyBase<<uint(e.Favored)),
	}
	for i := range l.Splices {
		if len(q.entries) <= 4 {
			continue
		}
		// Every slot draws its coin and its partner, so the RNG stream
		// advances by the energy alone, whatever the coins show.
		splice := q.rng.Intn(4) == 0
		if other := q.Random(); splice && other.ID != e.ID {
			l.Splices[i] = other.Input
		}
	}
	return l
}
