package ufotree

import "repro/internal/msf"

// DynamicMSF is a batch-dynamic minimum spanning forest over an arbitrary
// weighted undirected graph — the weighted sibling of DynamicGraph: where
// DynamicGraph keeps any spanning forest, a DynamicMSF keeps the minimum
// one, with edges ordered by (weight, normalized edge key). That order is
// total, so the forest is unique and every update leaves exactly the
// Kruskal forest of the live edge set, at every worker count: an added
// edge that beats the heaviest tree edge on its endpoint path swaps in
// (evicting that edge to the non-tree set), and a deleted tree edge is
// replaced by the minimum-weight edge reconnecting its split, not the
// minimum-key one.
//
// Updates follow the Batcher admission idiom: AddEdges and DeleteEdges
// pass on the MSF layer's pre-mutation check, which refuses an invalid
// batch with a typed error (ErrSelfLoop, ErrDuplicateEdge, ErrAbsentCut,
// ErrVertexRange — match with errors.Is) before any mutation, so an error
// return leaves the forest untouched. The Must forms panic with that
// error, for callers whose input is trusted by construction. Batches must not run concurrently with
// each other or with queries; read-only queries may run concurrently with
// each other between batches.
type DynamicMSF interface {
	// N returns the number of vertices.
	N() int
	// AddEdges inserts a batch of weighted edges, maintaining the minimum
	// spanning forest: a cycle-closing edge either swaps in (evicting the
	// heaviest path edge to the non-tree set) or settles as non-tree. A
	// self loop, an edge repeated in the batch in either orientation, an
	// already-present edge, or an out-of-range endpoint rejects the whole
	// batch with a typed error naming the first offending edge, before any
	// mutation.
	AddEdges(edges []Edge) error
	// DeleteEdges removes a batch of present edges, promoting for every
	// severed tree edge the minimum-(weight, key) replacement crossing the
	// split, if one exists. An absent edge, an edge repeated in the batch,
	// a self loop, or an out-of-range endpoint rejects the whole batch
	// with a typed error naming the first offending edge, before any
	// mutation.
	DeleteEdges(edges []Edge) error
	// MustAddEdges is AddEdges with a panic contract: an invalid batch
	// panics with AddEdges' error, before any mutation.
	MustAddEdges(edges []Edge)
	// MustDeleteEdges is DeleteEdges with a panic contract: an invalid
	// batch panics with DeleteEdges' error.
	MustDeleteEdges(edges []Edge)
	// TotalWeight returns the summed weight of the minimum spanning
	// forest, in O(1).
	TotalWeight() int64
	// TreeEdges returns the minimum spanning forest's edges with their
	// weights, sorted by normalized edge key, freshly allocated.
	TreeEdges() []Edge
	// IsTreeEdge reports whether (u,v) is currently a forest edge — a
	// contractual answer, since the MSF is unique.
	IsTreeEdge(u, v int) bool
	// EdgeWeight returns the weight of edge (u,v) and whether it is
	// present.
	EdgeWeight(u, v int) (int64, bool)
	// HasEdge reports whether edge (u,v) is present (tree or non-tree).
	HasEdge(u, v int) bool
	// EdgeCount returns the number of live edges (tree and non-tree).
	EdgeCount() int
	// ComponentCount returns the exact number of connected components in
	// O(1).
	ComponentCount() int
	// Connected reports whether u and v are in the same component.
	Connected(u, v int) bool
	// BatchConnected answers Connected for every (u,v) pair in parallel.
	BatchConnected(pairs [][2]int) []bool
	// SetWorkers fixes the worker count for batch operations (forest-layer
	// clamp rules: k <= 0 defaults to GOMAXPROCS, k == 1 is sequential).
	SetWorkers(k int)
	// Workers reports the configured worker count, after clamping.
	Workers() int
	// PhaseStats reports the MSF pipeline's telemetry for the most recent
	// batch — classify / cycle_max / swap / forest_cut / search / promote
	// / forest_link / nontree — with adds mapped onto Links, deletes onto
	// Cuts, and cycle-max rounds plus replacement sweeps onto
	// SearchRounds. This is a third phase vocabulary next to forest and
	// graph snapshots: Accumulate merges positionally, so MSF snapshots
	// must only ever aggregate with MSF snapshots. Swap and promotion
	// counts live on the concrete structure via UnderlyingMSF.
	PhaseStats() PhaseStats
	// Name identifies the implementation in benchmark output.
	Name() string
}

// NewDynamicMSF returns a batch-dynamic minimum spanning forest over n
// vertices, keeping the forest in a single weighted UFO tree. It takes the
// same construction options as New; WithWorkers applies with the usual
// clamp rules, and options that have no meaning here (WithLevels — the
// MSF keeps one forest, not a level structure — and WithSubtreeMax) are
// ignored.
func NewDynamicMSF(n int, opts ...Option) DynamicMSF {
	var o buildOptions
	for _, opt := range opts {
		opt(&o)
	}
	a := &msfAdapter{m: msf.New(n), name: "ufo-msf"}
	if o.workersSet {
		a.SetWorkers(o.workers)
	}
	return a
}

// UnderlyingMSF exposes the concrete structure behind a DynamicMSF for
// callers that need the extended API (tree / non-tree counts, component
// identifiers, swap and promotion telemetry, path aggregates over the
// forest).
func UnderlyingMSF(d DynamicMSF) (*msf.BatchDynamicMSF, bool) {
	a, ok := d.(*msfAdapter)
	if !ok {
		return nil, false
	}
	return a.m, true
}

type msfAdapter struct {
	m    *msf.BatchDynamicMSF
	name string
}

func (a *msfAdapter) N() int                   { return a.m.N() }
func (a *msfAdapter) TotalWeight() int64       { return a.m.TotalWeight() }
func (a *msfAdapter) IsTreeEdge(u, v int) bool { return a.m.IsTreeEdge(u, v) }
func (a *msfAdapter) HasEdge(u, v int) bool    { return a.m.HasEdge(u, v) }
func (a *msfAdapter) EdgeCount() int           { return a.m.EdgeCount() }
func (a *msfAdapter) ComponentCount() int      { return a.m.ComponentCount() }
func (a *msfAdapter) Connected(u, v int) bool  { return a.m.Connected(u, v) }
func (a *msfAdapter) SetWorkers(k int)         { a.m.SetWorkers(k) }
func (a *msfAdapter) Workers() int             { return a.m.Workers() }
func (a *msfAdapter) Name() string             { return a.name }

func (a *msfAdapter) EdgeWeight(u, v int) (int64, bool) { return a.m.EdgeWeight(u, v) }

func (a *msfAdapter) BatchConnected(pairs [][2]int) []bool { return a.m.BatchConnected(pairs) }

// TreeEdges converts the forest's edges to the facade type (both carry
// weights; the order is the internal layer's sorted-by-key contract).
func (a *msfAdapter) TreeEdges() []Edge {
	te := a.m.TreeEdges()
	out := make([]Edge, len(te))
	for i, e := range te {
		out[i] = Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

// AddEdges applies the batch; the MSF layer's pre-mutation check refuses
// an invalid one with a typed error, and nothing is mutated then.
func (a *msfAdapter) AddEdges(edges []Edge) error { return a.m.BatchAddEdges(convMSFEdges(edges)) }

// DeleteEdges applies the batch; like AddEdges, an invalid batch is
// refused with a typed error before any mutation.
func (a *msfAdapter) DeleteEdges(edges []Edge) error {
	return a.m.BatchDeleteEdges(convMSFEdges(edges))
}

func (a *msfAdapter) MustAddEdges(edges []Edge) {
	if err := a.AddEdges(edges); err != nil {
		panic(err)
	}
}

func (a *msfAdapter) MustDeleteEdges(edges []Edge) {
	if err := a.DeleteEdges(edges); err != nil {
		panic(err)
	}
}

// PhaseStats converts the MSF layer's telemetry to the facade type: Adds
// map onto Links, Deletes onto Cuts, and cycle-max rounds plus replacement
// sweeps onto SearchRounds. Levels and Depth are forest- and
// graph-vocabulary counters and stay zero for MSF snapshots; swap and
// promotion counts are on the concrete structure via UnderlyingMSF.
func (a *msfAdapter) PhaseStats() PhaseStats {
	s := a.m.PhaseStats()
	out := PhaseStats{
		Batches: s.Batches, Links: s.Adds, Cuts: s.Deletes,
		SearchRounds: s.Rounds, Total: s.Total,
	}
	out.Phases = make([]PhaseStat, len(s.Phases))
	for i, p := range s.Phases {
		out.Phases[i] = PhaseStat{Name: p.Name, Calls: p.Calls, Items: p.Items, Time: p.Time}
	}
	return out
}

func convMSFEdges(edges []Edge) []msf.Edge {
	out := make([]msf.Edge, len(edges))
	for i, e := range edges {
		out[i] = msf.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}

var _ DynamicMSF = (*msfAdapter)(nil)
