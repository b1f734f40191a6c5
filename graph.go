package ufotree

import (
	"sync"

	"repro/internal/conn"
)

// DynamicGraph is a batch-dynamic connectivity structure over an
// arbitrary undirected graph — the layer above BatchForest: where a
// BatchForest panics on an edge that would close a cycle, a DynamicGraph
// keeps it as a non-tree edge, and where a BatchForest cut simply severs,
// a DynamicGraph searches the severed components for a replacement edge
// and promotes one back into its internal spanning forest. Connectivity
// queries and ComponentCount are therefore exact for the full graph at
// all times.
//
// Updates follow the Batcher admission idiom: AddEdges and DeleteEdges
// pass on the connectivity layer's pre-mutation check, which refuses an
// invalid batch with a typed error (ErrSelfLoop, ErrDuplicateEdge,
// ErrAbsentCut, ErrVertexRange — match with errors.Is) before any
// mutation, so an error return leaves the graph untouched. The Must forms
// panic with that error, the forests' contract, for callers whose input
// is trusted by construction. SetWorkers clamp rules are identical to the
// forests (k <= 0 defaults to GOMAXPROCS, k == 1 is sequential,
// oversubscription allowed). Batches must not run concurrently with each
// other or with queries; read-only queries may run concurrently with each
// other between batches.
type DynamicGraph interface {
	// N returns the number of vertices.
	N() int
	// AddEdges inserts a batch of edges; edges closing a cycle are kept
	// as non-tree edges (weights are ignored — connectivity is
	// unweighted). A self loop, an edge repeated in the batch in either
	// orientation, an already-present edge, or an out-of-range endpoint
	// rejects the whole batch with a typed error naming the first
	// offending edge, before any mutation.
	AddEdges(edges []Edge) error
	// DeleteEdges removes a batch of present edges, running the
	// replacement-edge search for every severed component. An absent
	// edge, an edge repeated in the batch, a self loop, or an
	// out-of-range endpoint rejects the whole batch with a typed error
	// naming the first offending edge, before any mutation.
	DeleteEdges(edges []Edge) error
	// MustAddEdges is AddEdges with the forests' panic contract: an
	// invalid batch panics with AddEdges' error, before any mutation.
	MustAddEdges(edges []Edge)
	// MustDeleteEdges is DeleteEdges with the forests' panic contract: an
	// invalid batch panics with DeleteEdges' error.
	MustDeleteEdges(edges []Edge)
	// BatchConnected answers Connected for every (u,v) pair in parallel.
	BatchConnected(pairs [][2]int) []bool
	// BatchFindRepr returns one representative vertex per component for
	// every queried vertex: two vertices get the same representative
	// exactly when they are connected. Representatives are stable within
	// a batch epoch — across any number of queries between two updates,
	// a component keeps the same representative — and any update may
	// retire them. Backed by the component-identifier fast path, fanned
	// out at the configured worker count.
	BatchFindRepr(vs []int) []int
	// BatchConnectedPairs answers Connected for every (u,v) pair against
	// one consistent component snapshot, via the component-identifier
	// fast path (one parallel identifier pass over the endpoints, then
	// pairwise comparison). Semantically identical to BatchConnected;
	// preferable when the same epoch's identifiers also feed
	// BatchFindRepr groupings.
	BatchConnectedPairs(pairs [][2]int) []bool
	// Connected reports whether u and v are in the same component.
	Connected(u, v int) bool
	// HasEdge reports whether edge (u,v) is present (tree or non-tree).
	HasEdge(u, v int) bool
	// EdgeCount returns the number of live edges (tree and non-tree).
	EdgeCount() int
	// ComponentCount returns the exact number of connected components in
	// O(1).
	ComponentCount() int
	// Levels returns the depth of the internal level structure (the
	// construction-time WithLevels value after clamping, or the ~log n
	// default).
	Levels() int
	// SetWorkers fixes the worker count for batch operations (forest-layer
	// clamp rules).
	SetWorkers(k int)
	// Workers reports the configured worker count, after clamping.
	Workers() int
	// PhaseStats reports the connectivity pipeline's telemetry for the
	// most recent batch: classify / forest_cut / search / push_down /
	// promote / forest_link / nontree, with adds mapped onto Links,
	// deletes onto Cuts, the level-structure depth onto Depth, and
	// replacement-search sweeps onto SearchRounds (Levels — contraction
	// rounds — is a forest-engine concept and stays zero). The underlying
	// forests' own phase telemetry is separate and not included — and
	// because PhaseStats.Accumulate merges positionally, graph snapshots
	// must never be accumulated into the same aggregate as forest
	// snapshots (the two phase vocabularies differ).
	PhaseStats() PhaseStats
	// Name identifies the implementation in benchmark output.
	Name() string
}

// NewDynamicGraph returns a batch-dynamic connectivity structure over n
// vertices, keeping its spanning forests in UFO trees. It takes the same
// construction options as New; WithWorkers applies with the usual clamp
// rules, WithLevels fixes the level-structure depth (clamped to the ~log n
// default), and options that have no meaning on a graph (WithSubtreeMax —
// the connectivity layer is unweighted) are ignored.
func NewDynamicGraph(n int, opts ...Option) DynamicGraph {
	var o buildOptions
	for _, opt := range opts {
		opt(&o)
	}
	g := &graphAdapter{g: conn.NewWithLevels(n, o.levels), name: "ufo-conn"}
	if o.workersSet {
		g.SetWorkers(o.workers)
	}
	return g
}

// UnderlyingConnectivity exposes the concrete connectivity structure
// behind a DynamicGraph for callers that need the extended API (tree /
// non-tree counts, per-level telemetry, single-op convenience methods).
func UnderlyingConnectivity(d DynamicGraph) (*conn.BatchDynamicConnectivity, bool) {
	a, ok := d.(*graphAdapter)
	if !ok {
		return nil, false
	}
	return a.g, true
}

type graphAdapter struct {
	g    *conn.BatchDynamicConnectivity
	name string

	// reprMu guards repr, the epoch-local component-id → representative
	// cache behind BatchFindRepr (read-only queries may run concurrently,
	// and the first query of a component elects its representative).
	// Every successful update clears it: the underlying ids are only
	// stable between batches.
	reprMu sync.Mutex
	repr   map[uint64]int
}

func (a *graphAdapter) N() int                  { return a.g.N() }
func (a *graphAdapter) Connected(u, v int) bool { return a.g.Connected(u, v) }
func (a *graphAdapter) HasEdge(u, v int) bool   { return a.g.HasEdge(u, v) }
func (a *graphAdapter) EdgeCount() int          { return a.g.EdgeCount() }
func (a *graphAdapter) ComponentCount() int     { return a.g.ComponentCount() }
func (a *graphAdapter) Levels() int             { return a.g.Levels() }
func (a *graphAdapter) SetWorkers(k int)        { a.g.SetWorkers(k) }
func (a *graphAdapter) Workers() int            { return a.g.Workers() }
func (a *graphAdapter) Name() string            { return a.name }

func (a *graphAdapter) BatchConnected(pairs [][2]int) []bool { return a.g.BatchConnected(pairs) }

// AddEdges applies the batch; the connectivity layer's pre-mutation check
// refuses an invalid one with a typed error, and nothing is mutated then.
func (a *graphAdapter) AddEdges(edges []Edge) error {
	if err := a.g.BatchAddEdges(convGraphEdges(edges)); err != nil {
		return err
	}
	a.clearRepr()
	return nil
}

// DeleteEdges applies the batch; like AddEdges, an invalid batch is
// refused with a typed error before any mutation.
func (a *graphAdapter) DeleteEdges(edges []Edge) error {
	if err := a.g.BatchDeleteEdges(convGraphEdges(edges)); err != nil {
		return err
	}
	a.clearRepr()
	return nil
}

func (a *graphAdapter) MustAddEdges(edges []Edge) {
	if err := a.AddEdges(edges); err != nil {
		panic(err)
	}
}

func (a *graphAdapter) MustDeleteEdges(edges []Edge) {
	if err := a.DeleteEdges(edges); err != nil {
		panic(err)
	}
}

// BatchFindRepr elects the first queried vertex of each component as its
// representative and answers from the epoch-local cache from then on, so
// representatives are stable across queries until the next update.
func (a *graphAdapter) BatchFindRepr(vs []int) []int {
	ids := a.g.BatchComponentIDs(vs)
	out := make([]int, len(vs))
	a.reprMu.Lock()
	if a.repr == nil {
		a.repr = make(map[uint64]int, len(vs))
	}
	for i, id := range ids {
		r, ok := a.repr[id]
		if !ok {
			r = vs[i]
			a.repr[id] = r
		}
		out[i] = r
	}
	a.reprMu.Unlock()
	return out
}

// BatchConnectedPairs compares component identifiers gathered in one
// parallel pass over the pair endpoints.
func (a *graphAdapter) BatchConnectedPairs(pairs [][2]int) []bool {
	flat := make([]int, 2*len(pairs))
	for i, p := range pairs {
		flat[2*i], flat[2*i+1] = p[0], p[1]
	}
	ids := a.g.BatchComponentIDs(flat)
	out := make([]bool, len(pairs))
	for i := range pairs {
		out[i] = ids[2*i] == ids[2*i+1]
	}
	return out
}

func (a *graphAdapter) clearRepr() {
	a.reprMu.Lock()
	a.repr = nil
	a.reprMu.Unlock()
}

// PhaseStats converts the connectivity layer's telemetry to the facade
// type: Adds map onto Links, Deletes onto Cuts, the level-structure depth
// onto Depth, and replacement-search sweeps onto SearchRounds. Levels
// (contraction rounds) is a forest-engine counter and stays zero for graph
// snapshots. The per-level search breakdown is available on the concrete
// structure via UnderlyingConnectivity.
func (a *graphAdapter) PhaseStats() PhaseStats {
	s := a.g.PhaseStats()
	out := PhaseStats{
		Batches: s.Batches, Links: s.Adds, Cuts: s.Deletes,
		Depth: s.Depth, SearchRounds: s.Rounds, Total: s.Total,
	}
	out.Phases = make([]PhaseStat, len(s.Phases))
	for i, p := range s.Phases {
		out.Phases[i] = PhaseStat{Name: p.Name, Calls: p.Calls, Items: p.Items, Time: p.Time}
	}
	return out
}

// convGraphEdges drops the facade weights: the connectivity layer is
// unweighted.
func convGraphEdges(edges []Edge) []conn.Edge {
	out := make([]conn.Edge, len(edges))
	for i, e := range edges {
		out[i] = conn.Edge{U: e.U, V: e.V}
	}
	return out
}

var _ DynamicGraph = (*graphAdapter)(nil)
