package ufo

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ranktree"
)

const negInf = math.MinInt64

// maxLevels bounds the contraction height. log_{6/5} n for n = 2^62 is
// under 240; the engine panics if this is ever exceeded (which would
// indicate a balance bug).
const maxLevels = 256

// Cluster flags. Flags are stored in an atomic word so that the parallel
// batch-update phases can claim clusters (queue membership bits) and mark
// them (dead/damaged) with lock-free test-and-set; the sequential paths use
// the same accessors, whose uncontended atomic cost is negligible next to
// the adjacency work per cluster.
const (
	flagDead uint32 = 1 << iota
	flagInRoots
	flagInDel
	flagDamaged  // lost its merge center: force-delete when examined
	flagTouched  // parent whose aggregates need recomputation this round
	flagTrackMax // maintains non-invertible child aggregates (rank trees)
	flagMaxDirty // claimed for the level-synchronous rank-tree repair pass
)

// EdgeRef is one endpoint's view of a level-i edge. Every level-i edge is
// the image of a unique original tree edge; myV is the original endpoint
// inside this cluster, otherV the endpoint inside the neighbor. The weight
// rides along so path aggregates never need a side table. The neighbor is
// named by its arena handle, so an EdgeRef contains no pointers at all —
// adjacency storage (inline array and overflow table alike) is plain
// pointer-free data the garbage collector never scans.
type EdgeRef struct {
	key    uint64
	w      int64
	to     cref
	myV    int32
	otherV int32
}

// edgeSet is a cluster's adjacency: a small inline array for the common
// degree ≤ 4 case plus an open-addressing overflow table for high-degree
// clusters. This is the paper's memory optimization (§D.1): low-degree
// clusters (at least half of any tree) never allocate beyond the inline
// row. The overflow is a flat []EdgeRef with linear probing — no Go map,
// no per-entry boxing, no pointers — and it is released as soon as it
// drains: remove migrates overflow entries back into freed inline slots,
// so a cluster that was only briefly high-degree returns to a zero-heap
// adjacency instead of keeping an empty table alive forever.
type edgeSet struct {
	arr [4]EdgeRef
	n   int32
	ov  *ovTable
}

func (s *edgeSet) degree() int {
	d := int(s.n)
	if s.ov != nil {
		d += s.ov.n
	}
	return d
}

func (s *edgeSet) get(key uint64) (EdgeRef, bool) {
	for i := int32(0); i < s.n; i++ {
		if s.arr[i].key == key {
			return s.arr[i], true
		}
	}
	if s.ov != nil {
		return s.ov.get(key)
	}
	return EdgeRef{}, false
}

func (s *edgeSet) has(key uint64) bool {
	_, ok := s.get(key)
	return ok
}

// insert adds e unless an entry with the same key exists; it reports
// whether the entry was added.
func (s *edgeSet) insert(e EdgeRef) bool {
	if s.has(e.key) {
		return false
	}
	if s.n < int32(len(s.arr)) {
		s.arr[s.n] = e
		s.n++
		return true
	}
	if s.ov == nil {
		s.ov = newOvTable()
	}
	s.ov.put(e)
	return true
}

// remove deletes the entry with the given key, reporting whether it
// existed. An inline removal refills the freed slot from the overflow
// table, and the table is released the moment it empties, so transiently
// high-degree clusters do not retain overflow storage (and degree ≤ 4
// clusters never allocate on later inserts).
func (s *edgeSet) remove(key uint64) bool {
	for i := int32(0); i < s.n; i++ {
		if s.arr[i].key == key {
			s.n--
			s.arr[i] = s.arr[s.n]
			s.arr[s.n] = EdgeRef{}
			s.refill()
			return true
		}
	}
	if s.ov != nil {
		if s.ov.remove(key) {
			if s.ov.n == 0 {
				putOvTable(s.ov)
				s.ov = nil
			}
			return true
		}
	}
	return false
}

// refill compacts overflow entries into free inline slots and drops the
// overflow table once it is empty.
func (s *edgeSet) refill() {
	for s.ov != nil && s.n < int32(len(s.arr)) {
		e, ok := s.ov.takeAny()
		if !ok {
			putOvTable(s.ov)
			s.ov = nil
			return
		}
		s.arr[s.n] = e
		s.n++
		if s.ov.n == 0 {
			putOvTable(s.ov)
			s.ov = nil
		}
	}
}

// forEach visits every entry; fn returning false stops early. The set must
// not be mutated during iteration.
func (s *edgeSet) forEach(fn func(EdgeRef) bool) {
	for i := int32(0); i < s.n; i++ {
		if !fn(s.arr[i]) {
			return
		}
	}
	if s.ov != nil {
		for i := range s.ov.slots {
			if s.ov.slots[i].key != 0 && !fn(s.ov.slots[i]) {
				return
			}
		}
	}
}

// toward returns the entry whose neighbor is y. It reads the inline
// entries in place when there is no overflow table, the common case on
// every query walk, and falls back to forEach when there is one.
func (s *edgeSet) toward(y cref) (out EdgeRef, found bool) {
	if s.ov == nil {
		for i := int32(0); i < s.n; i++ {
			if s.arr[i].to == y {
				return s.arr[i], true
			}
		}
		return EdgeRef{}, false
	}
	s.forEach(func(e EdgeRef) bool {
		if e.to == y {
			out, found = e, true
			return false
		}
		return true
	})
	return out, found
}

// any returns an arbitrary entry.
func (s *edgeSet) any() (EdgeRef, bool) {
	if s.n > 0 {
		return s.arr[0], true
	}
	if s.ov != nil {
		for i := range s.ov.slots {
			if s.ov.slots[i].key != 0 {
				return s.ov.slots[i], true
			}
		}
	}
	return EdgeRef{}, false
}

func (s *edgeSet) clear() {
	if s.ov != nil {
		putOvTable(s.ov)
	}
	*s = edgeSet{}
}

// ovTable is the overflow half of an edgeSet: open addressing with linear
// probing and backward-shift deletion over a power-of-two slot array. Edge
// keys are never zero (every edge has two distinct endpoints and the
// normalized key's low half is the larger vertex id, which is ≥ 1), so a
// zero key marks an empty slot.
type ovTable struct {
	slots []EdgeRef
	n     int
}

const ovInitSlots = 8

// ovPool recycles overflow tables. High-degree clusters are rebuilt every
// batch that touches them, and without pooling each rebuild re-allocates a
// table the previous batch just dropped — the last per-cluster allocation
// left in a steady-state update. Tables are returned empty (putOvTable
// zeroes them), so a pooled table is ready for put immediately and keeps
// whatever slot capacity its previous owner grew to.
var ovPool = sync.Pool{New: func() any { return new(ovTable) }}

func newOvTable() *ovTable {
	t := ovPool.Get().(*ovTable)
	if t.slots == nil {
		t.slots = make([]EdgeRef, ovInitSlots)
	}
	return t
}

// putOvTable empties t and returns it to the pool. The caller must drop
// its reference (edgeSet.remove/refill/clear nil the field right after).
func putOvTable(t *ovTable) {
	if t.n != 0 {
		for i := range t.slots {
			t.slots[i] = EdgeRef{}
		}
		t.n = 0
	}
	ovPool.Put(t)
}

// ovHash spreads the edge key over the table (Fibonacci hashing; the top
// bits are well mixed, and the mask keeps the bottom of the product).
func ovHash(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> 17 }

func (t *ovTable) get(key uint64) (EdgeRef, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := ovHash(key) & mask; ; i = (i + 1) & mask {
		k := t.slots[i].key
		if k == key {
			return t.slots[i], true
		}
		if k == 0 {
			return EdgeRef{}, false
		}
	}
}

// put inserts e, whose key must not be present (edgeSet.insert checks).
func (t *ovTable) put(e EdgeRef) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := ovHash(e.key) & mask
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = e
	t.n++
}

func (t *ovTable) grow() {
	old := t.slots
	t.slots = make([]EdgeRef, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := ovHash(e.key) & mask
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// remove deletes key with the standard backward-shift compaction, keeping
// every surviving entry reachable from its home slot without tombstones.
func (t *ovTable) remove(key uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := uint64(len(t.slots) - 1)
	i := ovHash(key) & mask
	for {
		k := t.slots[i].key
		if k == 0 {
			return false
		}
		if k == key {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		k := t.slots[j].key
		if k == 0 {
			break
		}
		// Move j's entry into the hole only when its probe distance reaches
		// past the hole; otherwise it would become unreachable from its home.
		if (j-ovHash(k))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = EdgeRef{}
	t.n--
	return true
}

// takeAny removes and returns an arbitrary entry (inline-slot refill).
func (t *ovTable) takeAny() (EdgeRef, bool) {
	for i := range t.slots {
		if t.slots[i].key != 0 {
			e := t.slots[i]
			t.remove(e.key)
			return e, true
		}
	}
	return EdgeRef{}, false
}

// Cluster is the hot arena row of one node of the UFO tree: a connected
// set of input vertices formed by one round of contraction. Every
// cross-cluster reference — parent, merge center, matching proposal,
// children, adjacency — is a cref handle into the owning Forest's arena,
// never a pointer, so the whole contraction structure lives in a few flat
// allocations the collector does not trace through. The rank-tree state of
// trackMax forests lives in a parallel cold row (coldCluster), touched
// only by the repair pass, so the hot row stays compact for the phases and
// queries that dominate.
type Cluster struct {
	level    int32
	leafV    int32 // vertex id for level-0 leaves, else -1
	childIdx int32
	pathCnt  int32 // number of edges on the cluster path
	// uid is a forest-unique id used for lock striping, as the
	// symmetry-breaking priority source of the parallel pair matching,
	// and as the component identity behind Forest.ComponentID. The last
	// use requires ids to never repeat among live clusters, which is why
	// uid is 64-bit and never recycled even though the arena slot (the
	// handle) is: a freed slot's next occupant draws a fresh uid from the
	// forest counter, so a stale ComponentID can go dead but never alias
	// a different component.
	uid    uint64
	flags  atomic.Uint32
	parent cref
	// prop is transient engine scratch: the current proposal target during
	// the parallel pair-matching rounds of recluster. Always nilRef outside
	// an update.
	prop cref
	// center is the high-degree child of a superunary (unbounded-fanout)
	// merge; nilRef for pair and fanout-1 clusters.
	center   cref
	children []cref
	adj      edgeSet
	// Aggregates over the cluster's contents.
	vcnt    int64 // number of contained vertices
	subSum  int64 // sum of contained vertex values (group-invertible)
	pathSum int64 // sum of edge weights on the cluster path (binary only)
	pathMax int64 // max edge weight on the cluster path (negInf identity)
	// pathMaxKey is the normalized edge key (admit.Key) of the cluster-path
	// edge realizing pathMax, with equal weights broken toward the larger
	// key so the (pathMax, pathMaxKey) pair is a total order and argmax
	// answers are unique at every worker count. 0 (no edge) when pathMax
	// is the negInf identity.
	pathMaxKey uint64
	// subMax is the max vertex value in the cluster (EnableSubtreeMax
	// only). It stays in the hot row because queries read it during every
	// ascent; the rank-tree machinery that maintains it lives cold.
	subMax int64
}

// coldCluster is the cold arena row: rank-tree state and repair buffers of
// the trackMax engine, stored in a parallel chunk so the default engine and
// all queries never pull it into cache. Cold chunks are only allocated for
// EnableSubtreeMax forests.
//
// childTree stores the children's subMax values in a rank tree; childItem
// is this cluster's handle inside its parent's childTree. The rt* buffers
// are the deferred rank-tree repair state: structural phases record
// child-set and child-value changes here instead of eagerly rebuilding
// childTree, and the engine's post-phase repair pass (maxrepair.go) applies
// them level-synchronously, one level per contraction round. All three are
// empty between batch updates.
type coldCluster struct {
	childTree *ranktree.Tree
	childItem *ranktree.Item
	rtOrphans []*ranktree.Item // items of departed children awaiting Delete
	rtNew     []cref           // freshly attached children awaiting Insert
	rtStale   []cref           // children whose subMax changed (UpdateValue)
}

func (c *Cluster) dead() bool { return c.has(flagDead) }

// has reports whether any of the given flag bits is set.
func (c *Cluster) has(fl uint32) bool { return c.flags.Load()&fl != 0 }

// NOTE: set/clear/trySet intentionally use Load+CompareAndSwap loops
// rather than atomic.Uint32.Or/And. On the go1.24.0 toolchain the inlined
// And/Or intrinsics miscompile in this package's hot paths and corrupt the
// heap (reproducible with GOGC=1: "found bad pointer in Go heap"; clean
// with -gcflags=-l or with these CAS loops). Do not "simplify" these back
// to Or/And without verifying on a fixed toolchain under
// `GOGC=1 go test -count=10 ./internal/ufo/`.

// set sets the given flag bits.
func (c *Cluster) set(fl uint32) {
	for {
		old := c.flags.Load()
		if old&fl == fl || c.flags.CompareAndSwap(old, old|fl) {
			return
		}
	}
}

// clear clears the given flag bits.
func (c *Cluster) clear(fl uint32) {
	for {
		old := c.flags.Load()
		if old&fl == 0 || c.flags.CompareAndSwap(old, old&^fl) {
			return
		}
	}
}

// trySet atomically sets fl and reports whether this call was the one that
// set it (false when it was already set). The parallel phases use it to
// claim queue membership exactly once per cluster.
func (c *Cluster) trySet(fl uint32) bool {
	for {
		old := c.flags.Load()
		if old&fl != 0 {
			return false
		}
		if c.flags.CompareAndSwap(old, old|fl) {
			return true
		}
	}
}

// boundaries returns the distinct boundary vertices of c (the inside
// endpoints of its crossing edges) in O(1): clusters of degree ≥ 3 have a
// single boundary vertex (the unbounded-fanout invariant), so one entry
// suffices; degree ≤ 2 clusters are read directly. Without an overflow
// table the inline entries are read in place. A table exists only over
// four full inline slots and is never empty (Validate checks both), so a
// cluster with one has degree ≥ 5 and a single boundary.
func (c *Cluster) boundaries() (b [2]int32, n int) {
	s := &c.adj
	if s.ov != nil {
		e, _ := s.any()
		b[0] = e.myV
		return b, 1
	}
	switch s.n {
	case 0:
		return b, 0
	case 2:
		b[0] = s.arr[0].myV
		if v := s.arr[1].myV; v != b[0] {
			b[1] = v
			return b, 2
		}
		return b, 1
	default:
		b[0] = s.arr[0].myV
		return b, 1
	}
}

// attach makes c a child of p, keeping subtree aggregates of p and all of
// p's ancestors correct. With trackMax the rank-tree insertion is deferred:
// c is recorded in p's rtNew buffer and applied by the engine's repair pass
// (callers inside the engine must claim p via markMaxDirty). The only
// fanned attach site (matchPairs) targets freshly created, worker-owned
// parents, so the rtNew append needs no lock.
func (a *arena) attach(p, c cref) {
	hc, hp := a.at(c), a.at(p)
	a.setParent(hc, c, p)
	hc.childIdx = int32(len(hp.children))
	hp.children = append(hp.children, c)
	for h := hp; ; {
		h.subSum += hc.subSum
		h.vcnt += hc.vcnt
		if h.parent == nilRef {
			break
		}
		h = a.at(h.parent)
	}
	if hp.has(flagTrackMax) {
		cd := a.coldAt(p)
		cd.rtNew = append(cd.rtNew, c)
	}
}

// top returns the root cluster of c's component. The walk rides the
// packed parent column: one dependent 4-byte load per hop, against a
// column small enough to stay cache-resident across repeated walks
// (Connected, ComponentSize, and the shared query walker all sit on it).
func (a *arena) top(c cref) cref {
	par := a.par
	for {
		p := par[c]
		if p == nilRef {
			return c
		}
		c = p
	}
}

// edgeBetween finds the unique level edge between siblings x and y,
// scanning the smaller-degree side (which is always ≤ 2 for siblings of a
// valid merge, keeping this O(1)).
func (a *arena) edgeBetween(x, y cref) (EdgeRef, bool) {
	hx, hy := a.at(x), a.at(y)
	if hx.adj.degree() > hy.adj.degree() {
		// Search from y's side and flip the view.
		e, ok := hy.adj.toward(x)
		if !ok {
			return EdgeRef{}, false
		}
		return EdgeRef{to: y, key: e.key, w: e.w, myV: e.otherV, otherV: e.myV}, true
	}
	return hx.adj.toward(y)
}
