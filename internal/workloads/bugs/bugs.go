// Package bugs is the bug-injection registry for the PM workloads.
//
// It covers both bug populations of the paper's evaluation:
//
//   - Synthetic bugs (§5.1, Table 3): each workload declares a fixed list
//     of injection points matching the paper's counts (B-Tree 17, RB-Tree
//     14, R-Tree 16, Skip-List 12, Hashmap-TX 21, Hashmap-Atomic 14,
//     Memcached 17, Redis 14). Enabling a point mutates the workload the
//     way the paper does: removing/misplacing flushes and fences,
//     reordering writes, removing/misplacing backups, or corrupting
//     commit variables.
//
//   - Real-world bugs (§5.4, Bugs 1–12): pre-existing bugs in the
//     original programs, reproduced behind flags so both the buggy and
//     the fixed behaviour can be exercised.
package bugs

import "fmt"

// Kind classifies a synthetic injection point, mirroring the four
// approaches of §5.1 ("Synthetic Bug Injection").
type Kind int

// Injection kinds.
const (
	// SkipTxAdd removes a backup (TX_ADD) call: a crash during the
	// following in-place update loses data.
	SkipTxAdd Kind = iota
	// WrongLogRange backs up the wrong field (the Example 1 pattern:
	// log items[p], update items[p-1]).
	WrongLogRange
	// SkipFlush removes a writeback so the store may never persist.
	SkipFlush
	// SkipFence removes an ordering point, allowing later writes to
	// persist before earlier ones.
	SkipFence
	// ReorderWrites swaps two ordered PM updates around their barrier.
	ReorderWrites
	// WrongCommitValue writes a semantically wrong value to a commit
	// variable (valid bit, dirty counter).
	WrongCommitValue
	// RedundantTxAdd inserts an extra backup of already-logged data —
	// a performance bug, not a correctness bug.
	RedundantTxAdd
	// RedundantFlush inserts an extra writeback of already-persisted
	// data — a performance bug.
	RedundantFlush
)

var kindNames = map[Kind]string{
	SkipTxAdd:        "skip-tx-add",
	WrongLogRange:    "wrong-log-range",
	SkipFlush:        "skip-flush",
	SkipFence:        "skip-fence",
	ReorderWrites:    "reorder-writes",
	WrongCommitValue: "wrong-commit-value",
	RedundantTxAdd:   "redundant-tx-add",
	RedundantFlush:   "redundant-flush",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsPerformance reports whether the kind manifests as a performance bug
// (redundant work) rather than a crash-consistency bug.
func (k Kind) IsPerformance() bool {
	return k == RedundantTxAdd || k == RedundantFlush
}

// Point is one synthetic injection point inside a workload.
type Point struct {
	// ID is the point's 1-based index within its workload.
	ID int
	// Kind is what enabling the point does.
	Kind Kind
	// Site describes where in the workload the point lives, in
	// file:function form for reports.
	Site string
}

// RealBug identifies one of the paper's twelve real-world bugs (§5.4).
type RealBug int

// The twelve real-world bugs.
const (
	// Bug1HashmapTXCreateNotRetried — hashmap_tx.c:402: the creation
	// transaction is undone by a failure but never re-run; later code
	// dereferences the NULL map.
	Bug1HashmapTXCreateNotRetried RealBug = 1 + iota
	// Bug2BTreeCreateNotRetried — same pattern in B-Tree initialization.
	Bug2BTreeCreateNotRetried
	// Bug3RBTreeCreateNotRetried — same pattern in RB-Tree.
	Bug3RBTreeCreateNotRetried
	// Bug4RTreeCreateNotRetried — same pattern in R-Tree.
	Bug4RTreeCreateNotRetried
	// Bug5SkipListCreateNotRetried — same pattern in Skip-List.
	Bug5SkipListCreateNotRetried
	// Bug6AtomicRecoveryNotCalled — mapcli:205: the driver assumes all
	// structures auto-recover via transactions and never calls
	// hashmap_atomic's manual recovery (hashmap_atomic.c:452).
	Bug6AtomicRecoveryNotCalled
	// Bug7MemcachedRedundantFlush — pslab.c:317: per-slab memset flushes
	// are redundant with the whole-pool flush that follows.
	Bug7MemcachedRedundantFlush
	// Bug8HashmapTXRedundantAdd — hashmap_tx.c:90: TX_ADD of an object
	// just allocated with TX_ZNEW.
	Bug8HashmapTXRedundantAdd
	// Bug9RBTreeRedundantSetNew — rbtree_map.c:215: TX_SET of the
	// transaction-allocated node n.
	Bug9RBTreeRedundantSetNew
	// Bug10RBTreeRedundantAddFirst — rbtree_map.c: TX_ADD of
	// RB_FIRST(map) on a just-allocated tree.
	Bug10RBTreeRedundantAddFirst
	// Bug11RBTreeRedundantSetParent — rbtree_map.c: TX_SET of a parent
	// already added during rotation.
	Bug11RBTreeRedundantSetParent
	// Bug12BTreeRedundantAddInsert — btree_map.c:276: TX_ADD of a node
	// already added while finding the destination.
	Bug12BTreeRedundantAddInsert
)

// NumRealBugs is the count of real-world bugs reproduced from §5.4.
const NumRealBugs = 12

// realBugNames maps bugs to short names for reports.
var realBugNames = map[RealBug]string{
	Bug1HashmapTXCreateNotRetried: "hashmap-tx create not retried after crash",
	Bug2BTreeCreateNotRetried:     "btree create not retried after crash",
	Bug3RBTreeCreateNotRetried:    "rbtree create not retried after crash",
	Bug4RTreeCreateNotRetried:     "rtree create not retried after crash",
	Bug5SkipListCreateNotRetried:  "skiplist create not retried after crash",
	Bug6AtomicRecoveryNotCalled:   "hashmap-atomic recovery not called by driver",
	Bug7MemcachedRedundantFlush:   "memcached pslab redundant flushes",
	Bug8HashmapTXRedundantAdd:     "hashmap-tx TX_ADD after TX_ZNEW",
	Bug9RBTreeRedundantSetNew:     "rbtree TX_SET of tx-allocated node",
	Bug10RBTreeRedundantAddFirst:  "rbtree TX_ADD of just-allocated first entry",
	Bug11RBTreeRedundantSetParent: "rbtree TX_SET of parent added during rotate",
	Bug12BTreeRedundantAddInsert:  "btree TX_ADD of node added during find-dest",
}

// String names the bug.
func (b RealBug) String() string {
	if s, ok := realBugNames[b]; ok {
		return fmt.Sprintf("Bug %d: %s", int(b), s)
	}
	return fmt.Sprintf("Bug %d", int(b))
}

// IsPerformance reports whether the real bug is a performance bug (Bugs
// 7–12) rather than a crash-consistency bug (Bugs 1–6).
func (b RealBug) IsPerformance() bool { return b >= Bug7MemcachedRedundantFlush }

// Set is the per-execution bug configuration consulted by workload code.
// The zero value has no bugs enabled.
type Set struct {
	syn  map[int]bool
	real map[RealBug]bool
}

// NewSet returns an empty bug set.
func NewSet() *Set {
	return &Set{syn: map[int]bool{}, real: map[RealBug]bool{}}
}

// EnableSyn turns a synthetic injection point on.
func (s *Set) EnableSyn(id int) *Set {
	s.syn[id] = true
	return s
}

// EnableReal turns a real-world bug's buggy behaviour on.
func (s *Set) EnableReal(b RealBug) *Set {
	s.real[b] = true
	return s
}

// Syn reports whether synthetic point id is active. A nil set has no
// active bugs, so workload code can call this unconditionally.
func (s *Set) Syn(id int) bool {
	if s == nil {
		return false
	}
	return s.syn[id]
}

// Real reports whether real bug b is active.
func (s *Set) Real(b RealBug) bool {
	if s == nil {
		return false
	}
	return s.real[b]
}

// Enabled lists the active synthetic point IDs (1–64) and real bugs in
// ascending order, the form repro bundles record. A nil set has none.
func (s *Set) Enabled() (syn, real []int) {
	for id := 1; id <= 64; id++ {
		if s.Syn(id) {
			syn = append(syn, id)
		}
	}
	for b := RealBug(1); b <= NumRealBugs; b++ {
		if s.Real(b) {
			real = append(real, int(b))
		}
	}
	return syn, real
}

// Empty reports whether no bugs are enabled.
func (s *Set) Empty() bool {
	if s == nil {
		return true
	}
	return len(s.syn) == 0 && len(s.real) == 0
}

// SynCounts are the paper's Table 3 synthetic-bug counts per workload.
var SynCounts = map[string]int{
	"btree":          17,
	"rbtree":         14,
	"rtree":          16,
	"skiplist":       12,
	"hashmap-tx":     21,
	"hashmap-atomic": 14,
	"memcached":      17,
	"redis":          14,
}
