package conn

import (
	"math/bits"
	"time"

	"repro/internal/admit"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/ufo"
)

// Edge is an undirected graph edge in batch add/delete operations. The
// connectivity layer is unweighted: spanning-forest edges are linked into
// the underlying forests with weight 1.
type Edge struct {
	U, V int
}

// SimplifyEdges normalizes a raw (possibly multi-)graph edge list into
// the simple edge list the batch contract requires: self loops dropped
// and both orientations of an edge deduplicated, keeping first-seen
// order. Callers feeding generator multigraphs (internal/gen) into
// BatchAddEdges should pass their edge lists through here first, so the
// dedup rule can never drift from the validation rule — both use the same
// edge key.
func SimplifyEdges(raw [][2]int) []Edge {
	seen := make(map[uint64]struct{}, len(raw))
	out := make([]Edge, 0, len(raw))
	for _, e := range raw {
		if e[0] == e[1] {
			continue
		}
		k := admit.Key(e[0], e[1])
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, Edge{U: e[0], V: e[1]})
	}
	return out
}

// edgeRec is the central per-edge record: the edge's current level and
// whether it is a spanning-forest (tree) edge. Levels only ever increase
// while an edge is present (push-downs); a deleted and re-added edge
// restarts at level 0.
type edgeRec struct {
	level int32
	tree  bool
}

// level is one rung of the HDT-style level structure. Level 0 always holds
// the full spanning forest; higher levels materialize lazily, the first
// time a failed replacement search pushes an edge down to them.
type level struct {
	f  *ufo.Forest        // spanning forest of edges with level >= this one; nil until materialized
	te []map[int]struct{} // te[u]: neighbors of u via tree edges at exactly this level
	nt []map[int]struct{} // nt[u]: neighbors of u via non-tree edges at exactly this level
}

// DefaultLevels returns the level-structure depth New configures for n
// vertices: floor(log2 n) + 1, the classic HDT bound — a component at
// level i holds at most n >> i vertices, so the bottom level's components
// are single vertices and every failed scan can be charged to a level
// increase.
func DefaultLevels(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n-1)) + 1
}

// BatchDynamicConnectivity maintains connectivity of an arbitrary
// undirected graph under batches of edge insertions and deletions, with
// HDT-style multi-level amortization of the replacement-edge search: a
// spanning forest of the graph lives in the level-0 ufo.Forest, every edge
// that would close a cycle is held in a per-vertex non-tree incidence
// structure bucketed by level, and higher levels maintain nested spanning
// forests (level-i forest ⊆ level-(i-1) forest) restricted to edges whose
// failed scans pushed them down. Adds classify at the top (level 0);
// deletes cut a tree edge out of every forest holding it and repair
// maximality level by level, sweeping the smaller severed pieces and
// pushing every scanned-but-useless edge down one level so no edge is ever
// rescanned at the same level.
//
// The zero value is not usable; construct with New or NewWithLevels.
// Batches must not run concurrently with each other or with queries;
// read-only queries (Connected, BatchConnected, BatchComponentIDs,
// HasEdge, ComponentCount) may run concurrently with each other between
// batches.
type BatchDynamicConnectivity struct {
	n       int
	lv      []level
	maxUsed int                // highest materialized level index
	rec     map[uint64]edgeRec // every live edge: level + tree flag
	ntCount int
	workers int
	stats   PhaseStats
	scratch []int       // reused ComponentVertices buffer for the search sweeps
	chk     admit.Check // reusable pre-mutation batch check

	// Delete-batch transients: per-level pending BatchLink payloads (each
	// level's forest stays static during its own search; links flush just
	// before the level is searched, or at batch end), and the shadow
	// union-find over top-level component ids that guards deferred
	// promotions against cycles. Both live only inside BatchDeleteEdges.
	pend    [][]ufo.Edge
	shadow0 *search.CompUF
}

// New returns an empty dynamic graph over n vertices (no edges, n
// components) with the default level-structure depth (DefaultLevels).
func New(n int) *BatchDynamicConnectivity { return NewWithLevels(n, 0) }

// NewWithLevels returns an empty dynamic graph over n vertices with a
// level structure of depth levels. levels <= 0 selects the default
// (DefaultLevels(n)); values above the default are clamped down to it —
// deeper levels could never hold an edge under the size invariant — and
// values below it trade amortization for memory: push-downs stop at the
// bottom level, so scans there are no longer charged to level decreases
// (levels == 1 reproduces the single-level search).
func NewWithLevels(n, levels int) *BatchDynamicConnectivity {
	max := DefaultLevels(n)
	if levels <= 0 || levels > max {
		levels = max
	}
	g := &BatchDynamicConnectivity{
		n:       n,
		lv:      make([]level, levels),
		rec:     make(map[uint64]edgeRec),
		workers: 1,
	}
	g.lv[0].f = ufo.New(n)
	g.lv[0].te = make([]map[int]struct{}, n)
	g.lv[0].nt = make([]map[int]struct{}, n)
	return g
}

// f0 returns the level-0 forest: the full spanning forest answering all
// connectivity queries.
func (g *BatchDynamicConnectivity) f0() *ufo.Forest { return g.lv[0].f }

// ensure materializes level i (forest + incidence buckets). Levels are
// materialized bottom-up one at a time by push-downs, so i <= maxUsed+1.
func (g *BatchDynamicConnectivity) ensure(i int) {
	if g.lv[i].f != nil {
		return
	}
	g.lv[i].f = ufo.New(g.n)
	g.lv[i].f.SetWorkers(g.workers)
	g.lv[i].te = make([]map[int]struct{}, g.n)
	g.lv[i].nt = make([]map[int]struct{}, g.n)
	if i > g.maxUsed {
		g.maxUsed = i
	}
}

// N returns the number of vertices.
func (g *BatchDynamicConnectivity) N() int { return g.n }

// Levels returns the configured depth of the level structure.
func (g *BatchDynamicConnectivity) Levels() int { return len(g.lv) }

// MaxLevelUsed returns the highest level index holding (or having held) a
// materialized forest — how deep push-downs have reached so far.
func (g *BatchDynamicConnectivity) MaxLevelUsed() int { return g.maxUsed }

// SetWorkers fixes the worker count used by batch operations, with the
// forest layer's clamp rules: k <= 0 defaults to GOMAXPROCS, k == 1 runs
// fully sequentially, larger counts (oversubscription included) fan the
// classification, search, and forest phases out over k goroutines. The
// count propagates to every materialized level forest.
func (g *BatchDynamicConnectivity) SetWorkers(k int) {
	if k <= 0 {
		k = parallel.Procs()
	}
	g.workers = k
	for i := range g.lv {
		if g.lv[i].f != nil {
			g.lv[i].f.SetWorkers(k)
		}
	}
}

// Workers reports the configured worker count, after clamping.
func (g *BatchDynamicConnectivity) Workers() int { return g.workers }

// EdgeCount returns the number of live edges (tree and non-tree).
func (g *BatchDynamicConnectivity) EdgeCount() int { return g.f0().EdgeCount() + g.ntCount }

// TreeEdgeCount returns the number of spanning-forest edges.
func (g *BatchDynamicConnectivity) TreeEdgeCount() int { return g.f0().EdgeCount() }

// NonTreeEdgeCount returns the number of edges currently held outside the
// spanning forest.
func (g *BatchDynamicConnectivity) NonTreeEdgeCount() int { return g.ntCount }

// ComponentCount returns the number of connected components. Because the
// level-0 forest is always a spanning forest of the graph, this is exactly
// n - TreeEdgeCount, in O(1).
func (g *BatchDynamicConnectivity) ComponentCount() int { return g.n - g.f0().EdgeCount() }

// HasEdge reports whether edge (u,v) is present, as a tree or non-tree
// edge, in O(1) (one lookup in the central edge record).
func (g *BatchDynamicConnectivity) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	_, ok := g.rec[admit.Key(u, v)]
	return ok
}

// IsTreeEdge reports whether (u,v) is currently a spanning-forest edge.
// Which of a cycle's edges are tree edges is an implementation detail that
// may change across batches (replacement promotions); only connectivity is
// contractual.
func (g *BatchDynamicConnectivity) IsTreeEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	r, ok := g.rec[admit.Key(u, v)]
	return ok && r.tree
}

// EdgeLevel returns the current level of edge (u,v) and whether the edge
// is present (diagnostics and tests; levels only increase while the edge
// stays present).
func (g *BatchDynamicConnectivity) EdgeLevel(u, v int) (int, bool) {
	r, ok := g.rec[admit.Key(u, v)]
	return int(r.level), ok
}

// Connected reports whether u and v are in the same component, in
// O(min{log n, D}).
// The probe is two root walks over the forest's packed parent column
// (4 bytes per hop) — the same walk the replacement search and admission
// layers lean on, so its latency is load-bearing here.
func (g *BatchDynamicConnectivity) Connected(u, v int) bool { return g.f0().Connected(u, v) }

// BatchConnected answers Connected for every (u,v) pair, fanned out over
// the configured worker count (the forest's parallel batch query).
func (g *BatchDynamicConnectivity) BatchConnected(pairs [][2]int) []bool {
	return g.f0().BatchConnected(pairs)
}

// ComponentID returns an opaque identifier of u's component: equal for
// two vertices exactly when they are connected, stable between batches,
// never reused (the level-0 forest's root-cluster uid).
func (g *BatchDynamicConnectivity) ComponentID(u int) uint64 { return g.f0().ComponentID(u) }

// BatchComponentIDs answers ComponentID for every vertex, fanned out over
// the configured worker count. Identifiers are stable between batches and
// never reused, so callers can use one batch's result as a grouping key —
// the fast path behind the facade's BatchFindRepr and BatchConnectedPairs.
func (g *BatchDynamicConnectivity) BatchComponentIDs(vs []int) []uint64 {
	out := make([]uint64, len(vs))
	f := g.f0()
	parallel.WorkersForRangeAuto(g.workers, len(vs), classifyGrain, func(_, lo, hi int) {
		chaos()
		for i := lo; i < hi; i++ {
			out[i] = f.ComponentID(vs[i])
		}
	})
	return out
}

// PhaseStats returns the per-phase telemetry of the most recent batch
// (single-edge AddEdge/DeleteEdge included). Like the forest engine's
// PhaseStats, it is reset at the start of each batch; aggregate run-level
// views with PhaseStats.Accumulate. The zero value is returned before the
// first batch.
func (g *BatchDynamicConnectivity) PhaseStats() PhaseStats { return g.stats.snapshot() }

// AddEdge inserts the single edge (u,v): a one-element BatchAddEdges.
func (g *BatchDynamicConnectivity) AddEdge(u, v int) error { return g.BatchAddEdges([]Edge{{u, v}}) }

// DeleteEdge removes the single edge (u,v): a one-element BatchDeleteEdges.
func (g *BatchDynamicConnectivity) DeleteEdge(u, v int) error {
	return g.BatchDeleteEdges([]Edge{{u, v}})
}

// classifyGrain is the smallest per-worker chunk of the classification and
// search fan-outs; tests lower it (like the forest's parGrain) to drive
// the parallel paths on tiny batches.
var classifyGrain = 64

// BatchAddEdges inserts a batch of edges at level 0 (the top of the level
// structure). Edges that merge two components extend the spanning forest
// (one parallel BatchLink into the level-0 forest); edges that would close
// a cycle — against the current forest or against earlier edges of the
// same batch — become level-0 non-tree edges instead of panicking, which
// is the contract difference between this graph layer and the forest layer
// below it.
//
// An adversarial batch (an endpoint out of range, a self loop, an in-batch
// repeat in either orientation, an edge already present) is refused with
// the shared check's typed error before any mutation.
func (g *BatchDynamicConnectivity) BatchAddEdges(edges []Edge) error {
	if len(edges) == 0 {
		return nil
	}
	at := func(i int) (int, int) { return edges[i].U, edges[i].V }
	if err := g.chk.Batch(admit.Add, g.n, len(edges), at, g.HasEdge); err != nil {
		return err
	}
	g.beginStats(len(edges), 0)
	start := time.Now()

	// Classify: compute every endpoint's component in parallel (read-only
	// root walks), then build the batch-internal spanning structure with a
	// sequential union-find over component ids, in batch order, so the
	// tree/non-tree split is deterministic at every worker count.
	var treeLinks []ufo.Edge
	var nonTree []Edge
	f := g.f0()
	g.timePhase(phClassify, func() int {
		ends := make([][2]uint64, len(edges))
		parallel.WorkersForRangeAuto(g.workers, len(edges), classifyGrain, func(_, lo, hi int) {
			chaos()
			for i := lo; i < hi; i++ {
				ends[i] = [2]uint64{f.ComponentID(edges[i].U), f.ComponentID(edges[i].V)}
			}
		})
		uf := search.NewCompUF(len(edges))
		for i, e := range edges {
			if uf.Union(ends[i][0], ends[i][1]) {
				treeLinks = append(treeLinks, ufo.Edge{U: e.U, V: e.V, W: 1})
			} else {
				nonTree = append(nonTree, e)
			}
		}
		return len(edges)
	})
	g.timePhase(phForestLink, func() int {
		if len(treeLinks) > 0 {
			f.BatchLink(treeLinks)
		}
		for _, e := range treeLinks {
			g.teInsert(0, e.U, e.V)
			g.rec[admit.Key(e.U, e.V)] = edgeRec{level: 0, tree: true}
		}
		return len(treeLinks)
	})
	g.timePhase(phNonTree, func() int {
		for _, e := range nonTree {
			g.ntInsert(0, e.U, e.V)
			g.rec[admit.Key(e.U, e.V)] = edgeRec{level: 0, tree: false}
		}
		return len(nonTree)
	})
	g.stats.Total = time.Since(start)
	return nil
}

// ntInsert records (u,v) as a non-tree edge at level i in both endpoints'
// incidence sets.
func (g *BatchDynamicConnectivity) ntInsert(i, u, v int) {
	nt := g.lv[i].nt
	if nt[u] == nil {
		nt[u] = make(map[int]struct{}, 4)
	}
	if nt[v] == nil {
		nt[v] = make(map[int]struct{}, 4)
	}
	nt[u][v] = struct{}{}
	nt[v][u] = struct{}{}
	g.ntCount++
}

// ntRemove drops the non-tree edge (u,v) from both level-i incidence sets.
func (g *BatchDynamicConnectivity) ntRemove(i, u, v int) {
	delete(g.lv[i].nt[u], v)
	delete(g.lv[i].nt[v], u)
	g.ntCount--
}

// teInsert records (u,v) as a tree edge at level i in both endpoints'
// tree-incidence sets.
func (g *BatchDynamicConnectivity) teInsert(i, u, v int) {
	te := g.lv[i].te
	if te[u] == nil {
		te[u] = make(map[int]struct{}, 4)
	}
	if te[v] == nil {
		te[v] = make(map[int]struct{}, 4)
	}
	te[u][v] = struct{}{}
	te[v][u] = struct{}{}
}

// teRemove drops the tree edge (u,v) from both level-i tree-incidence
// sets.
func (g *BatchDynamicConnectivity) teRemove(i, u, v int) {
	delete(g.lv[i].te[u], v)
	delete(g.lv[i].te[v], u)
}
