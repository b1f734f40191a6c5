package msf

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/admit"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/ufo"
)

// Edge is a weighted undirected graph edge in batch add/delete operations.
// Deletes identify edges by endpoints only; the weight field is ignored
// there.
type Edge struct {
	U, V int
	W    int64
}

// less reports whether edge (w1,k1) precedes (w2,k2) in the total order
// the structure minimizes over: weight first, normalized edge key
// (admit.Key, the forest engine's key too, so PathMaxEdge answers compare
// directly) breaking ties. The unique MSF is the Kruskal forest of this
// order.
func less(w1 int64, k1 uint64, w2 int64, k2 uint64) bool {
	return w1 < w2 || (w1 == w2 && k1 < k2)
}

// edgeRec is the central per-edge record: the live weight and whether the
// edge is currently in the minimum spanning forest.
type edgeRec struct {
	w    int64
	tree bool
}

// SimplifyEdges normalizes a raw weighted (possibly multi-)graph edge list
// into the simple edge list the batch contract requires: self loops
// dropped and both orientations of an edge deduplicated, keeping
// first-seen order (and the first-seen weight).
func SimplifyEdges(raw []Edge) []Edge {
	seen := make(map[uint64]struct{}, len(raw))
	out := make([]Edge, 0, len(raw))
	for _, e := range raw {
		if e.U == e.V {
			continue
		}
		k := admit.Key(e.U, e.V)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, e)
	}
	return out
}

// BatchDynamicMSF maintains the unique minimum spanning forest (under the
// (weight, key) total order) of a weighted undirected graph under batches
// of edge insertions and deletions. The forest lives in a single
// ufo.Forest whose link weights are the real edge weights, so the engine's
// path aggregates answer the cycle-max question directly; every non-forest
// edge is held in a per-vertex weighted incidence structure.
//
// The zero value is not usable; construct with New. Batches must not run
// concurrently with each other or with queries; read-only queries may run
// concurrently with each other between batches.
type BatchDynamicMSF struct {
	n       int
	f       *ufo.Forest
	rec     map[uint64]edgeRec // every live edge: weight + tree flag
	nt      []map[int]int64    // nt[u]: non-tree neighbors of u with edge weights
	ntCount int
	total   int64 // sum of tree-edge weights
	workers int
	stats   PhaseStats
	scratch []int       // reused ComponentVertices buffer for the search sweeps
	chk     admit.Check // reusable pre-mutation batch check
}

// New returns an empty minimum spanning forest over n vertices (no edges,
// n components).
func New(n int) *BatchDynamicMSF {
	return &BatchDynamicMSF{
		n:       n,
		f:       ufo.New(n),
		rec:     make(map[uint64]edgeRec),
		nt:      make([]map[int]int64, n),
		workers: 1,
	}
}

// N returns the number of vertices.
func (m *BatchDynamicMSF) N() int { return m.n }

// SetWorkers fixes the worker count used by batch operations, with the
// forest layer's clamp rules: k <= 0 defaults to GOMAXPROCS, k == 1 runs
// fully sequentially, larger counts fan the classification, cycle-max
// query, and search phases out over k goroutines.
func (m *BatchDynamicMSF) SetWorkers(k int) {
	if k <= 0 {
		k = parallel.Procs()
	}
	m.workers = k
	m.f.SetWorkers(k)
}

// Workers reports the configured worker count, after clamping.
func (m *BatchDynamicMSF) Workers() int { return m.workers }

// TotalWeight returns the sum of the forest's edge weights — the weight of
// the minimum spanning forest of the live graph — in O(1).
func (m *BatchDynamicMSF) TotalWeight() int64 { return m.total }

// EdgeCount returns the number of live edges (forest and non-forest).
func (m *BatchDynamicMSF) EdgeCount() int { return m.f.EdgeCount() + m.ntCount }

// TreeEdgeCount returns the number of minimum-spanning-forest edges.
func (m *BatchDynamicMSF) TreeEdgeCount() int { return m.f.EdgeCount() }

// NonTreeEdgeCount returns the number of live edges outside the forest.
func (m *BatchDynamicMSF) NonTreeEdgeCount() int { return m.ntCount }

// ComponentCount returns the number of connected components, in O(1).
func (m *BatchDynamicMSF) ComponentCount() int { return m.n - m.f.EdgeCount() }

// HasEdge reports whether edge (u,v) is present, in O(1).
func (m *BatchDynamicMSF) HasEdge(u, v int) bool {
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		return false
	}
	_, ok := m.rec[admit.Key(u, v)]
	return ok
}

// EdgeWeight returns the weight of edge (u,v) and whether it is present.
func (m *BatchDynamicMSF) EdgeWeight(u, v int) (int64, bool) {
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		return 0, false
	}
	r, ok := m.rec[admit.Key(u, v)]
	return r.w, ok
}

// IsTreeEdge reports whether (u,v) is currently a minimum-spanning-forest
// edge. Unlike conn's spanning forest, tree membership here is contractual:
// the forest is the unique MSF under the (weight, key) order.
func (m *BatchDynamicMSF) IsTreeEdge(u, v int) bool {
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		return false
	}
	r, ok := m.rec[admit.Key(u, v)]
	return ok && r.tree
}

// Connected reports whether u and v are in the same component, in
// O(min{log n, D}).
func (m *BatchDynamicMSF) Connected(u, v int) bool { return m.f.Connected(u, v) }

// BatchConnected answers Connected for every (u,v) pair, fanned out over
// the configured worker count.
func (m *BatchDynamicMSF) BatchConnected(pairs [][2]int) []bool {
	return m.f.BatchConnected(pairs)
}

// ComponentID returns an opaque identifier of u's component: equal for two
// vertices exactly when they are connected, stable between batches, never
// reused.
func (m *BatchDynamicMSF) ComponentID(u int) uint64 { return m.f.ComponentID(u) }

// TreeEdges returns the minimum spanning forest's edges sorted by
// normalized key (deterministic at every worker count), freshly allocated.
// O(E) over all live edges plus the sort.
func (m *BatchDynamicMSF) TreeEdges() []Edge {
	out := make([]Edge, 0, m.f.EdgeCount())
	for k, r := range m.rec {
		if r.tree {
			out = append(out, Edge{U: int(int32(k >> 32)), V: int(int32(uint32(k))), W: r.w})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		return admit.Key(out[a].U, out[a].V) < admit.Key(out[b].U, out[b].V)
	})
	return out
}

// Forest exposes the underlying ufo.Forest for read-only use between
// batches (path aggregates over the MSF, e.g. bottleneck queries via
// PathMax). Mutating it directly corrupts the structure.
func (m *BatchDynamicMSF) Forest() *ufo.Forest { return m.f }

// PhaseStats returns the per-phase telemetry of the most recent batch
// (single-edge AddEdge/DeleteEdge included), reset at the start of each
// batch; aggregate run-level views with PhaseStats.Accumulate. The zero
// value is returned before the first batch.
func (m *BatchDynamicMSF) PhaseStats() PhaseStats { return m.stats.snapshot() }

// AddEdge inserts the single edge (u,v,w): a one-element BatchAddEdges.
func (m *BatchDynamicMSF) AddEdge(u, v int, w int64) error {
	return m.BatchAddEdges([]Edge{{U: u, V: v, W: w}})
}

// DeleteEdge removes the single edge (u,v): a one-element BatchDeleteEdges.
func (m *BatchDynamicMSF) DeleteEdge(u, v int) error {
	return m.BatchDeleteEdges([]Edge{{U: u, V: v}})
}

// classifyGrain is the smallest per-worker chunk of the classification
// fan-outs; tests lower it (like the forest's parGrain) to drive the
// parallel paths on tiny batches.
var classifyGrain = 64

// ntInsert records (u,v) as a non-tree edge with weight w in both
// endpoints' incidence maps.
func (m *BatchDynamicMSF) ntInsert(u, v int, w int64) {
	if m.nt[u] == nil {
		m.nt[u] = make(map[int]int64, 4)
	}
	if m.nt[v] == nil {
		m.nt[v] = make(map[int]int64, 4)
	}
	m.nt[u][v] = w
	m.nt[v][u] = w
	m.ntCount++
}

// ntRemove drops the non-tree edge (u,v) from both incidence maps.
func (m *BatchDynamicMSF) ntRemove(u, v int) {
	delete(m.nt[u], v)
	delete(m.nt[v], u)
	m.ntCount--
}

// BatchAddEdges inserts a batch of weighted edges. Edges that merge two
// components extend the forest directly (one parallel BatchLink); edges
// that would close a cycle — against the current forest or against earlier
// edges of the same batch — enter the candidate pool and run the cycle-max
// swap rounds: a candidate joins the forest iff it precedes the heaviest
// edge on its endpoint path in the (weight, key) order, evicting that edge
// to the non-tree set. A candidate that loses, and an evicted edge, are
// settled for good (see swapRounds for why neither can win later); only
// winners deferred by a conflict over the same evictee are queried again,
// and the rounds end when none is left. The result is the unique MSF of
// the live graph.
//
// An adversarial batch (an endpoint out of range, a self loop, an in-batch
// repeat in either orientation, an edge already present) is refused with
// the shared check's typed error before any mutation.
func (m *BatchDynamicMSF) BatchAddEdges(edges []Edge) error {
	if len(edges) == 0 {
		return nil
	}
	at := func(i int) (int, int) { return edges[i].U, edges[i].V }
	if err := m.chk.Batch(admit.Add, m.n, len(edges), at, m.HasEdge); err != nil {
		return err
	}
	m.beginStats(len(edges), 0)
	start := time.Now()

	// Classify: compute every endpoint's component in parallel (read-only
	// root walks), then build the batch-internal spanning structure with a
	// sequential union-find over component ids, in batch order, so the
	// tree/candidate split is deterministic at every worker count.
	var treeLinks []ufo.Edge
	var pool []Edge
	m.timePhase(phClassify, func() int {
		ends := make([][2]uint64, len(edges))
		parallel.WorkersForRangeAuto(m.workers, len(edges), classifyGrain, func(_, lo, hi int) {
			chaos()
			for i := lo; i < hi; i++ {
				ends[i] = [2]uint64{m.f.ComponentID(edges[i].U), m.f.ComponentID(edges[i].V)}
			}
		})
		uf := search.NewCompUF(len(edges))
		for i, e := range edges {
			if uf.Union(ends[i][0], ends[i][1]) {
				treeLinks = append(treeLinks, ufo.Edge{U: e.U, V: e.V, W: e.W})
			} else {
				pool = append(pool, e)
			}
		}
		return len(edges)
	})
	m.timePhase(phForestLink, func() int {
		if len(treeLinks) > 0 {
			m.f.BatchLink(treeLinks)
		}
		for _, e := range treeLinks {
			m.rec[admit.Key(e.U, e.V)] = edgeRec{w: e.W, tree: true}
			m.total += e.W
		}
		return len(treeLinks)
	})

	// A directly linked batch edge is not necessarily an MSF edge (a
	// lighter candidate may thread the same cut); the swap rounds below
	// evict it if so, and they leave every non-tree edge heavier than every
	// edge on its forest path — the cycle-property characterization of the
	// unique MSF.
	m.swapRounds(pool)
	m.stats.Total = time.Since(start)
	return nil
}

// swapRounds runs the cycle-max rounds over the candidate pool. Each round
// answers the pool's path-maximum queries in one BatchPathMaxEdge against
// the static forest. A candidate that does not precede its path maximum
// loses and is settled as a non-tree edge. The winners apply in ascending
// (weight, key) order, one per evicted tree edge: each evictee is cut,
// its winner linked, and the evictee settled as a non-tree edge. A winner
// whose evictee an earlier winner already claimed is deferred, and only
// the deferred winners are queried next round. The rounds end when no
// winner was deferred; every round applies at least its lightest winner,
// so the pool shrinks each round.
//
// Settling losers and evictees at once is sound because a round of
// improving swaps never disconnects the sub-forest of the edges lighter
// than any threshold t ("lighter" meaning earlier in the (weight, key)
// order throughout). Let the round apply winners e_i with evictees f_i:
// e_i is lighter than f_i, f_i is the maximum of e_i's path, and the f_i
// are distinct. Take the evictees in ascending order. f_i's endpoints stay
// joined through e_i and the rest of e_i's old path, all lighter than f_i;
// an edge of that path that was itself evicted is some lighter f_j, whose
// endpoints are by induction already joined by edges lighter than f_j.
// So every pair of vertices joined by forest edges lighter than t before
// the round is still joined by forest edges lighter than t after it. An
// edge heavier than every edge on its path — a loser, or an evictee f_i
// once its round is applied — therefore stays heavier than every edge on
// its path in every later round, and could never win again. Every
// candidate's endpoints stay connected in the forest throughout: a
// candidate closed a cycle at classification time, and a swap reconnects
// exactly the cut it makes.
func (m *BatchDynamicMSF) swapRounds(pool []Edge) {
	settled := make([]Edge, 0, len(pool))
	for len(pool) > 0 {
		pairs := make([][2]int, len(pool))
		for i, e := range pool {
			pairs[i] = [2]int{e.U, e.V}
		}
		var mw []int64
		var mx, my []int
		var mok []bool
		m.timePhase(phCycleMax, func() int {
			mw, mx, my, mok = m.f.BatchPathMaxEdge(pairs)
			return len(pairs)
		})
		m.stats.Rounds++

		winners := make([]int, 0, len(pool))
		for i, e := range pool {
			if !mok[i] {
				panic(fmt.Sprintf("msf: candidate (%d,%d) lost forest connectivity", e.U, e.V))
			}
			if less(e.W, admit.Key(e.U, e.V), mw[i], admit.Key(mx[i], my[i])) {
				winners = append(winners, i)
			} else {
				settled = append(settled, e)
			}
		}
		if len(winners) == 0 {
			break
		}
		sort.Slice(winners, func(a, b int) bool {
			ea, eb := pool[winners[a]], pool[winners[b]]
			return less(ea.W, admit.Key(ea.U, ea.V), eb.W, admit.Key(eb.U, eb.V))
		})

		evicted := make(map[uint64]bool, len(winners))
		var cuts [][2]int
		var links []ufo.Edge
		var deferred []Edge
		tSwap := time.Now()
		for _, i := range winners {
			e := pool[i]
			ek := admit.Key(mx[i], my[i])
			if evicted[ek] {
				deferred = append(deferred, e)
				continue
			}
			evicted[ek] = true
			cuts = append(cuts, [2]int{mx[i], my[i]})
			links = append(links, ufo.Edge{U: e.U, V: e.V, W: e.W})
			settled = append(settled, Edge{U: mx[i], V: my[i], W: mw[i]})
			m.rec[admit.Key(e.U, e.V)] = edgeRec{w: e.W, tree: true}
			m.total += e.W - mw[i]
			m.stats.Swaps++
		}
		// Distinct evictees make the simultaneous swap set safe: each link
		// reconnects exactly the cut of its own evictee, and no pending
		// cycle can avoid its own maximum (see the oracle test for the
		// differential witness).
		m.f.BatchCut(cuts)
		m.f.BatchLink(links)
		m.addPhase(phSwap, time.Since(tSwap), len(cuts))
		pool = deferred
	}

	m.timePhase(phNonTree, func() int {
		for _, e := range settled {
			m.rec[admit.Key(e.U, e.V)] = edgeRec{w: e.W, tree: false}
			m.ntInsert(e.U, e.V, e.W)
		}
		return len(settled)
	})
}
