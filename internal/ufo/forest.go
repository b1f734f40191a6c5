package ufo

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/admit"
	"repro/internal/parallel"
)

// Edge is an update item for batch operations.
type Edge struct {
	U, V int
	W    int64
}

// Mode selects the contraction rules. UFO trees allow the unbounded-fanout
// merge (a high-degree cluster absorbs all its degree-1 neighbors) and
// preserve high-degree/high-fanout clusters across updates; topology trees
// (Frederickson) use pair merges only — including the degree-1/degree-3
// pair — require input degree ≤ 3, and delete every stale ancestor.
type Mode uint8

// Contraction modes.
const (
	ModeUFO Mode = iota
	ModeTopology
	// ModeRC is a deterministic, direct rake–compress style contraction:
	// every round, each cluster with degree-1 neighbors absorbs all of
	// them (rake — the center may have any degree, unlike UFO's ≥ 3
	// rule), and the remaining degree ≤ 2 clusters are compressed along a
	// maximal matching. Updates tear down all stale ancestors (no
	// preservation). Inputs must have degree ≤ 3 (ternarize first), which
	// also bounds all fanouts. This reproduces the paper's "deterministic
	// and direct version of rake-compress trees" baseline (§D.1).
	ModeRC
)

// Forest is a contraction-based dynamic forest over vertices 0..n-1 (a UFO
// tree by default, a topology tree with NewTopology).
//
// All cluster storage lives in the forest's arena (arena.go): vertex v's
// leaf cluster is permanently handle cref(v), interior clusters are
// allocated above n and recycled through the free list as batches create
// and delete them.
//
// The zero configuration runs updates serially; SetWorkers picks the
// worker count of goroutine-parallel batch updates (0 for GOMAXPROCS). All
// query methods are read-only and may run concurrently with each other
// (but not with updates).
type Forest struct {
	n        int
	a        arena
	nEdges   int
	workers  int
	trackMax bool
	mode     Mode
	seed     uint64
	uidSrc   atomic.Uint64
	chk      admit.Check // reusable pre-mutation batch check
	eng      engine

	// Batch-query engine state (batchquery.go / sharedquery.go). The
	// scratch pool and counters are safe under concurrent batch queries.
	queryGrain int       // min queries per worker chunk (default 64)
	queryMode  QueryMode // forced walk mode, or QueryAuto
	qc         queryCounters
	qsPool     sync.Pool // *qscratch
}

// New returns an empty UFO-tree forest over n vertices.
func New(n int) *Forest {
	return newForest(n, ModeUFO)
}

// NewTopology returns an empty topology-tree forest over n vertices. The
// represented forest must keep all vertex degrees ≤ 3 (use the ternary
// package to lift arbitrary-degree inputs).
func NewTopology(n int) *Forest {
	return newForest(n, ModeTopology)
}

// NewRC returns an empty rake-compress-style forest over n vertices. The
// represented forest must keep all vertex degrees ≤ 3 (use the ternary
// package to lift arbitrary-degree inputs).
func NewRC(n int) *Forest {
	return newForest(n, ModeRC)
}

func newForest(n int, m Mode) *Forest {
	f := &Forest{n: n, workers: 1, mode: m, seed: 0x9e3779b97f4a7c15, queryGrain: 64}
	f.a.reserve(n)
	for i := 0; i < n; i++ {
		r := f.a.allocSlot(false)
		h := f.a.at(r)
		h.leafV = int32(i)
		h.childIdx = -1
		h.uid = uint64(i)
		f.a.setParent(h, r, nilRef)
		h.prop, h.center = nilRef, nilRef
		h.vcnt = 1
		h.pathMax = negInf
	}
	f.uidSrc.Store(uint64(n))
	f.eng.f = f
	return f
}

// leaf returns the handle of vertex v's level-0 cluster: leaves occupy
// arena slots 0..n-1 permanently, in vertex order.
func (f *Forest) leaf(v int) cref { return cref(v) }

// Mode reports the contraction mode.
func (f *Forest) Mode() Mode { return f.mode }

// N returns the number of vertices.
func (f *Forest) N() int { return f.n }

// EdgeCount returns the number of live edges.
func (f *Forest) EdgeCount() int { return f.nEdges }

// SetWorkers fixes the number of workers used by batch updates and batch
// queries. Clamp rules: k <= 0 defaults to runtime.GOMAXPROCS(0); k == 1
// runs every pipeline phase inline on the calling goroutine (no locks, no
// goroutines); k >= 2 fans phases past the fork grain out over k
// goroutines. Counts above GOMAXPROCS are allowed
// (oversubscription), which the tests use to exercise the fanned phases'
// interleavings on machines with few cores.
func (f *Forest) SetWorkers(k int) {
	if k <= 0 {
		k = parallel.Procs()
	}
	f.workers = k
}

// Workers reports the configured batch worker count (the value set by
// SetWorkers, after clamping). Every pipeline phase of every configuration
// — trackMax forests included — runs at this count; per-batch phase
// attribution is available from PhaseStats.
func (f *Forest) Workers() int { return f.workers }

// PhaseStats returns the per-phase telemetry of the most recent batch
// update (single-edge Link/Cut included): monotonic wall time, item
// counts, and calls for every pipeline phase, plus the batch shape and
// contraction rounds processed. The engine resets the stats at the start
// of each batch; callers tracking a whole run aggregate the snapshots
// with PhaseStats.Accumulate. The zero value is returned before the first
// update.
func (f *Forest) PhaseStats() PhaseStats {
	return f.eng.stats.snapshot()
}

// HasEdge reports whether edge (u,v) is present.
func (f *Forest) HasEdge(u, v int) bool {
	return f.a.at(f.leaf(u)).adj.has(admit.Key(u, v))
}

// Connected reports whether u and v are in the same tree. Cost is
// proportional to the tree height, O(min{log n, D}).
func (f *Forest) Connected(u, v int) bool {
	if u == v {
		return true
	}
	return f.a.top(f.leaf(u)) == f.a.top(f.leaf(v))
}

// ComponentSize returns the number of vertices in u's tree in
// O(min{log n, D}) time.
func (f *Forest) ComponentSize(u int) int {
	return int(f.a.at(f.a.top(f.leaf(u))).vcnt)
}

// Height returns the level of u's root cluster (diagnostics; the paper
// bounds it by min{log_{6/5} n, ceil(D/2)}).
func (f *Forest) Height(u int) int {
	return int(f.a.at(f.a.top(f.leaf(u))).level)
}

// Link inserts edge (u,v) with weight w. The endpoints must be distinct,
// currently disconnected, and not already joined by this edge.
func (f *Forest) Link(u, v int, w int64) {
	if u == v {
		panic(fmt.Sprintf("ufo: self loop %d", u))
	}
	if f.HasEdge(u, v) {
		panic(fmt.Sprintf("ufo: duplicate edge (%d,%d)", u, v))
	}
	if f.Connected(u, v) {
		panic(fmt.Sprintf("ufo: edge (%d,%d) would create a cycle", u, v))
	}
	f.eng.run([]Edge{{u, v, w}}, nil)
}

// Cut removes edge (u,v), which must exist.
func (f *Forest) Cut(u, v int) {
	if !f.HasEdge(u, v) {
		panic(fmt.Sprintf("ufo: cutting absent edge (%d,%d)", u, v))
	}
	f.eng.run(nil, [][2]int{{u, v}})
}

// BatchLink inserts a batch of edges. The batch joined with the current
// forest must remain a forest, and no edge may repeat.
//
// Adversarial inputs panic before any mutation, at every worker count,
// with an error value that errors.Is the matching admit error: an
// endpoint out of range, a self loop, an edge repeated inside the batch
// (in either orientation — (u,v) and (v,u) name the same edge), and an
// edge already present in the forest. Because the check precedes the
// first structural change, a recovered panic leaves the forest exactly as
// it was. (Batches that would close a cycle across distinct edges are not
// checked; they violate the forest contract like in the C++ baselines.)
func (f *Forest) BatchLink(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	at := func(i int) (int, int) { return edges[i].U, edges[i].V }
	if err := f.chk.Batch(admit.Link, f.n, len(edges), at, f.HasEdge); err != nil {
		panic(err)
	}
	f.eng.run(edges, nil)
}

// BatchCut removes a batch of edges, all of which must exist and be
// distinct. Like BatchLink, adversarial inputs — an endpoint out of range,
// a self loop, an edge repeated inside the batch in either orientation,
// or an absent edge — panic with the check's error before any mutation.
func (f *Forest) BatchCut(edges [][2]int) {
	if len(edges) == 0 {
		return
	}
	at := func(i int) (int, int) { return edges[i][0], edges[i][1] }
	if err := f.chk.Batch(admit.Cut, f.n, len(edges), at, f.HasEdge); err != nil {
		panic(err)
	}
	f.eng.run(nil, edges)
}

// SetVertexValue assigns the value aggregated by subtree queries,
// propagating the change along the leaf-to-root path.
func (f *Forest) SetVertexValue(v int, val int64) {
	l := f.leaf(v)
	delta := val - f.a.at(l).subSum
	for c := l; c != nilRef; c = f.a.at(c).parent {
		f.a.at(c).subSum += delta
	}
	if f.trackMax {
		f.bubbleMax(l)
	}
}

// VertexValue returns v's current value.
func (f *Forest) VertexValue(v int) int64 { return f.a.at(f.leaf(v)).subSum }
