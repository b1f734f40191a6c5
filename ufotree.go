// Package ufotree is a library of dynamic-tree data structures, built as a
// faithful reproduction of "UFO Trees: Practical and Provably-Efficient
// Parallel Batch-Dynamic Trees" (De Man, Sharma, Gowda, Dhulipala — PPoPP
// 2026).
//
// A dynamic-tree (or dynamic-forest) structure maintains a forest under
// edge insertions (Link) and deletions (Cut) while answering connectivity,
// path, and subtree queries in (poly-)logarithmic time. This package
// provides one facade over six implementations:
//
//   - UFO trees (the paper's contribution): arbitrary-degree inputs, all
//     query types, O(min{log n, D}) updates and queries (D = diameter),
//     and batch updates;
//   - link-cut trees: the fastest sequential baseline (path queries only);
//   - Euler tour trees over treaps, splay trees, or skip lists
//     (connectivity and subtree queries only);
//   - topology trees and rake-compress style trees over dynamic
//     ternarization (all query types, constant-degree core).
//
// On top of the forests sits one graph structure: NewDynamicGraph returns
// a batch-dynamic connectivity structure (DynamicGraph) that maintains an
// arbitrary undirected graph — cycle-closing edges are held as non-tree
// edges, and deleting a spanning-forest edge triggers a parallel
// replacement-edge search instead of severing the component.
//
// Construct a structure with one of the New* functions and drive it
// through the Forest / BatchForest / DynamicGraph interfaces, or use the
// concrete types in internal packages for the full API (extended queries,
// validation).
package ufotree

import (
	"time"

	"repro/internal/ett"
	"repro/internal/linkcut"
	"repro/internal/seq"
	"repro/internal/ternary"
	"repro/internal/ufo"
)

// Edge is a weighted undirected edge used by batch updates.
type Edge struct {
	U, V int
	W    int64
}

// Forest is the operation set shared by every dynamic-tree structure in
// this library. Implementations panic on precondition violations (self
// loops, duplicate links, links that would close a cycle, cuts of absent
// edges), mirroring the C++ implementations the paper benchmarks.
type Forest interface {
	// N returns the number of vertices.
	N() int
	// Link inserts edge (u,v) with weight w; u and v must currently be in
	// different trees.
	//
	// Weight contract: structures that do not support path queries are
	// weight-agnostic — Euler tour trees ignore w entirely (their Euler
	// tours carry no per-edge aggregate). The facade makes this uniform:
	// every adapter accepts w, weight-aware structures (UFO, link-cut,
	// topology, RC) aggregate it, and weight-agnostic ones ignore it
	// without panicking. Feature-detect with a PathQuerier type assertion
	// when weights matter.
	Link(u, v int, w int64)
	// Cut removes the existing edge (u,v).
	Cut(u, v int)
	// Connected reports whether u and v are in the same tree.
	Connected(u, v int) bool
	// HasEdge reports whether the edge (u,v) is present.
	HasEdge(u, v int) bool
	// Name identifies the implementation in benchmark output.
	Name() string
}

// PathQuerier is implemented by structures that support path aggregates
// (link-cut, UFO, topology, RC).
type PathQuerier interface {
	// PathSum returns the sum of edge weights on the u..v path; ok is
	// false when u and v are disconnected.
	PathSum(u, v int) (int64, bool)
	// PathMax returns the maximum edge weight on the u..v path; ok is
	// false when disconnected or u == v.
	PathMax(u, v int) (int64, bool)
}

// SubtreeQuerier is implemented by structures that support subtree
// aggregates over vertex values (UFO, topology, RC, ETT).
type SubtreeQuerier interface {
	// SetVertexValue assigns the value of v aggregated by SubtreeSum.
	SetVertexValue(v int, val int64)
	// SubtreeSum returns the sum of vertex values in the subtree rooted
	// at v when p (adjacent to v) is its parent.
	SubtreeSum(v, p int) int64
}

// PhaseStat is the accumulated cost of one batch-update pipeline phase
// (the facade mirror of ufo.PhaseStat).
type PhaseStat struct {
	Name  string        `json:"name"`
	Calls int           `json:"calls"` // invocations (one per contraction round for level phases)
	Items int64         `json:"items"` // work items processed (phase-specific unit)
	Time  time.Duration `json:"time_ns"`
}

// PhaseStats is the per-phase telemetry of a structure's batch updates:
// monotonic wall time, item counts, and calls per pipeline phase, plus the
// batch shape and contraction rounds processed. Snapshots come from
// BatchForest.PhaseStats; Accumulate aggregates them across batches.
type PhaseStats struct {
	Batches int   `json:"batches"` // batches aggregated (1 per snapshot)
	Links   int64 `json:"links"`
	Cuts    int64 `json:"cuts"`
	Levels  int   `json:"levels"` // contraction rounds processed (forest snapshots)
	// Depth and SearchRounds belong to graph snapshots
	// (DynamicGraph.PhaseStats): the connectivity level-structure depth (a
	// configuration, carried not summed) and the replacement-search sweeps
	// performed. Forest snapshots leave them zero, as graph snapshots leave
	// Levels zero — the fields are separate precisely so the one Levels
	// counter is never overloaded with both meanings.
	Depth        int           `json:"depth,omitempty"`
	SearchRounds int           `json:"search_rounds,omitempty"`
	Total        time.Duration `json:"total_ns"`
	Phases       []PhaseStat   `json:"phases"`
}

// Accumulate merges o into s, phase by phase, for callers tracking a whole
// run of batches (servers, benchmark loops). Phases merge positionally, so
// an aggregate must only ever accumulate snapshots from one phase
// vocabulary: forest snapshots (BatchForest.PhaseStats, the eight engine
// phases) and graph snapshots (DynamicGraph.PhaseStats, the six
// connectivity phases) share this type but must be aggregated separately —
// mixing them would silently add unrelated phases together.
func (s *PhaseStats) Accumulate(o PhaseStats) {
	if len(s.Phases) < len(o.Phases) {
		ph := make([]PhaseStat, len(o.Phases))
		for i := range ph {
			ph[i].Name = o.Phases[i].Name
		}
		copy(ph, s.Phases)
		s.Phases = ph
	}
	s.Batches += o.Batches
	s.Links += o.Links
	s.Cuts += o.Cuts
	s.Levels += o.Levels
	if o.Depth > s.Depth {
		s.Depth = o.Depth
	}
	s.SearchRounds += o.SearchRounds
	s.Total += o.Total
	for i := range o.Phases {
		s.Phases[i].Calls += o.Phases[i].Calls
		s.Phases[i].Items += o.Phases[i].Items
		s.Phases[i].Time += o.Phases[i].Time
	}
}

// Clone returns a deep copy: the shallow struct copy shares the Phases
// backing array, which Accumulate mutates in place, so aggregating
// callers that hand snapshots to another goroutine (e.g. a stats
// endpoint) must Clone inside their critical section.
func (s PhaseStats) Clone() PhaseStats {
	out := s
	out.Phases = append([]PhaseStat(nil), s.Phases...)
	return out
}

// fromUFOStats converts the internal engine telemetry to the facade type.
func fromUFOStats(s ufo.PhaseStats) PhaseStats {
	out := PhaseStats{Batches: s.Batches, Links: s.Links, Cuts: s.Cuts, Levels: s.Levels, Total: s.Total}
	out.Phases = make([]PhaseStat, len(s.Phases))
	for i, p := range s.Phases {
		out.Phases[i] = PhaseStat{Name: p.Name, Calls: p.Calls, Items: p.Items, Time: p.Time}
	}
	return out
}

// QueryMode selects how a structure's batch queries walk its hierarchy
// (the facade mirror of ufo.QueryMode).
type QueryMode uint8

// Batch-query walk modes.
const (
	// QueryAuto picks per batch between the independent fan-out and the
	// shared traversal, from the batch size and the endpoint-duplication
	// ratio. The default.
	QueryAuto QueryMode = iota
	// QueryIndependent forces every batch query to run its single-op walk
	// on its own.
	QueryIndependent
	// QueryShared forces the cooperative shared-traversal walker: workers
	// memoize leaf-to-root walks per distinct endpoint and reuse them
	// across the queries of their range, so q skewed queries cost
	// O(unique clusters touched) instead of O(q · height).
	QueryShared
)

// QueryStats is cumulative batch-query telemetry (the facade mirror of
// ufo.QueryStats): how many batches ran, which walk mode answered them,
// and how much duplicate work the shared walker saved. Counters accumulate
// since structure creation — snapshot twice and subtract to meter an
// interval.
type QueryStats struct {
	// Batches counts batch entry-point calls; Queries the individual
	// queries inside them.
	Batches int64 `json:"batches"`
	Queries int64 `json:"queries"`
	// IndependentBatches and SharedBatches split Batches by walk mode.
	IndependentBatches int64 `json:"independent_batches"`
	SharedBatches      int64 `json:"shared_batches"`
	// SharedQueries counts queries answered by shared traversal.
	SharedQueries int64 `json:"shared_queries"`
	// SharedEndpoints counts distinct endpoints resolved fresh by shared
	// walks; SharedMemoHits counts lookups answered from an already-built
	// walk (the deduplicated work).
	SharedEndpoints int64 `json:"shared_endpoints"`
	SharedMemoHits  int64 `json:"shared_memo_hits"`
	// SharedClusterVisits counts cluster hops taken building shared walks.
	SharedClusterVisits int64 `json:"shared_cluster_visits"`
}

// fromUFOQueryStats converts the internal query telemetry to the facade
// type.
func fromUFOQueryStats(s ufo.QueryStats) QueryStats {
	return QueryStats{
		Batches:             s.Batches,
		Queries:             s.Queries,
		IndependentBatches:  s.IndependentBatches,
		SharedBatches:       s.SharedBatches,
		SharedQueries:       s.SharedQueries,
		SharedEndpoints:     s.SharedEndpoints,
		SharedMemoHits:      s.SharedMemoHits,
		SharedClusterVisits: s.SharedClusterVisits,
	}
}

// QueryEngine is implemented by structures whose batch-query layer exposes
// walk-mode selection and telemetry: the UFO adapter and the ternarized
// adapters (whose batch queries run on the UFO engine underneath). Like
// SetWorkers, SetQueryMode must not race with in-flight batch queries.
type QueryEngine interface {
	// SetQueryMode forces the batch-query walk mode; QueryAuto (the
	// default) picks per batch.
	SetQueryMode(QueryMode)
	// QueryMode reports the configured walk mode.
	QueryMode() QueryMode
	// QueryStats reports the cumulative batch-query telemetry. Safe to
	// call concurrently with batch queries.
	QueryStats() QueryStats
}

// BatchForest is implemented by the parallel batch-dynamic structures
// (UFO, topology, RC, ETT).
type BatchForest interface {
	Forest
	// BatchLink inserts a set of edges; the result must remain a forest.
	//
	// Pre-mutation panic contract (uniform across adapters, one shared
	// check): an adversarial batch — an endpoint out of range
	// (ErrVertexRange), a self loop (ErrSelfLoop), an edge repeated inside
	// the batch in either orientation or already present
	// (ErrDuplicateEdge) — panics before any structural change, with an
	// error value that errors.Is the matching typed error. A recovered
	// panic leaves the forest exactly as it was, at every worker count.
	// Links that would close a cycle are not checked; ValidateLinks
	// reports them.
	BatchLink(edges []Edge)
	// BatchCut removes a set of existing edges. The pre-mutation panic
	// contract of BatchLink applies, with an edge repeated in the batch or
	// absent reported as ErrAbsentCut.
	BatchCut(edges []Edge)
	// SetWorkers fixes the number of workers used by batch updates and
	// batch queries. Clamp rules, uniform across adapters: k <= 0 defaults
	// to runtime.GOMAXPROCS(0); k == 1 runs fully sequentially; counts
	// above GOMAXPROCS are allowed (oversubscription). Implementations
	// without a tunable update width (the Euler-tour trees) run batch
	// updates in parallel for any k > 1.
	SetWorkers(k int)
	// Workers reports the configured batch worker count, after clamping.
	// Every structural phase of every configuration runs at this count —
	// subtree-max tracking included, since rank-tree repair is
	// level-synchronous; per-phase attribution is available from
	// PhaseStats. ETT query fan-out is further limited by backend
	// capability (splay backends answer connectivity serially — they
	// rotate on access) and by component structure (subtree batches
	// parallelize across, not within, components).
	Workers() int
	// PhaseStats reports the per-phase telemetry of the structure's most
	// recent batch update (engine pipelines reset it at each batch; see
	// PhaseStats.Accumulate for run-level aggregation). Structures without
	// a phase pipeline — the Euler-tour trees — return the zero value.
	PhaseStats() PhaseStats
}

// BatchQuerier is the read-side twin of BatchForest: batched queries
// fanned out over the structure's worker count (SetWorkers). UFO and
// ternarized queries are read-only between batch updates, so the batch
// forms need no locking; a batch must not run concurrently with updates,
// but BatchQuerier batches may run concurrently with each other.
// Implemented by the UFO and ternarization (topology, RC) adapters;
// Euler tour trees implement the BatchConnectivityQuerier subset — with a
// stricter contract: ETT subtree queries splice the Euler tour even when
// answering, so ETT batch queries must also be exclusive of each other
// (each call parallelizes internally).
//
// Batched path-hop counting (BatchPathHops) is deliberately absent: the
// ternarized structures cannot separate real from fake edges in a hop
// count. The concrete *ufo.Forest (via UnderlyingUFO) provides it.
type BatchQuerier interface {
	BatchConnectivityQuerier
	// BatchPathSum answers PathSum for every (u,v) pair; ok[i] is false
	// when the pair is disconnected.
	BatchPathSum(pairs [][2]int) ([]int64, []bool)
	// BatchPathMax answers PathMax for every (u,v) pair; ok[i] is false
	// when the pair is disconnected or u == v.
	BatchPathMax(pairs [][2]int) ([]int64, []bool)
	// BatchLCA answers, for every triple (u,v,r), the lowest common
	// ancestor of u and v with the tree rooted at r; ok[i] is false when
	// the triple spans more than one tree.
	BatchLCA(triples [][3]int) ([]int, []bool)
}

// BatchConnectivityQuerier is the batch-query subset every batch-dynamic
// structure in this library supports, including Euler tour trees.
type BatchConnectivityQuerier interface {
	// BatchConnected answers Connected for every (u,v) pair.
	BatchConnected(pairs [][2]int) []bool
	// BatchSubtreeSum answers SubtreeSum for every (v,p) pair; each p
	// must be adjacent to its v, and violating pairs panic
	// deterministically before any parallel fan-out.
	BatchSubtreeSum(pairs [][2]int) []int64
}

// NewUFO returns a UFO-tree forest over n vertices: the paper's primary
// data structure. It supports every interface in this package.
func NewUFO(n int) BatchForest { return &ufoAdapter{f: ufo.New(n), name: "ufo"} }

// NewLinkCut returns a link-cut tree forest over n vertices (sequential
// only; path queries).
func NewLinkCut(n int) Forest { return &lctAdapter{f: linkcut.New(n)} }

// NewTopology returns a topology-tree forest over n vertices behind dynamic
// ternarization (arbitrary degrees).
func NewTopology(n int) BatchForest {
	return &ternAdapter{f: ternary.NewTopology(n), name: "topology"}
}

// NewRC returns a rake-compress style forest over n vertices behind dynamic
// ternarization (arbitrary degrees).
func NewRC(n int) BatchForest {
	return &ternAdapter{f: ternary.NewRC(n), name: "rc"}
}

// NewETTTreap returns an Euler-tour-tree forest backed by treaps.
func NewETTTreap(n int, seed uint64) BatchForest {
	return &ettAdapter[*seq.TreapNode, *seq.Treap]{f: ett.NewTreap(n, seed), name: "ett-treap"}
}

// NewETTSplay returns an Euler-tour-tree forest backed by splay trees.
func NewETTSplay(n int) BatchForest {
	return &ettAdapter[*seq.SplayNode, *seq.Splay]{f: ett.NewSplay(n), name: "ett-splay"}
}

// NewETTSkipList returns an Euler-tour-tree forest backed by skip lists.
func NewETTSkipList(n int, seed uint64) BatchForest {
	return &ettAdapter[*seq.SkipNode, *seq.SkipList]{f: ett.NewSkipList(n, seed), name: "ett-skiplist"}
}

type ufoAdapter struct {
	f    *ufo.Forest
	name string
}

func (a *ufoAdapter) N() int                         { return a.f.N() }
func (a *ufoAdapter) Link(u, v int, w int64)         { a.f.Link(u, v, w) }
func (a *ufoAdapter) Cut(u, v int)                   { a.f.Cut(u, v) }
func (a *ufoAdapter) Connected(u, v int) bool        { return a.f.Connected(u, v) }
func (a *ufoAdapter) HasEdge(u, v int) bool          { return a.f.HasEdge(u, v) }
func (a *ufoAdapter) Name() string                   { return a.name }
func (a *ufoAdapter) PathSum(u, v int) (int64, bool) { return a.f.PathSum(u, v) }
func (a *ufoAdapter) PathMax(u, v int) (int64, bool) { return a.f.PathMax(u, v) }
func (a *ufoAdapter) SetVertexValue(v int, x int64)  { a.f.SetVertexValue(v, x) }
func (a *ufoAdapter) SubtreeSum(v, p int) int64      { return a.f.SubtreeSum(v, p) }
func (a *ufoAdapter) SetWorkers(k int)               { a.f.SetWorkers(k) }
func (a *ufoAdapter) Workers() int                   { return a.f.Workers() }
func (a *ufoAdapter) PhaseStats() PhaseStats         { return fromUFOStats(a.f.PhaseStats()) }

// SetQueryMode forces the batch-query walk mode (see QueryEngine).
func (a *ufoAdapter) SetQueryMode(m QueryMode) { a.f.SetQueryMode(ufo.QueryMode(m)) }

// QueryMode reports the configured batch-query walk mode.
func (a *ufoAdapter) QueryMode() QueryMode { return QueryMode(a.f.QueryMode()) }

// QueryStats reports the cumulative batch-query telemetry.
func (a *ufoAdapter) QueryStats() QueryStats { return fromUFOQueryStats(a.f.QueryStats()) }

// ComponentID implements ComponentIDer: the root cluster's uid, stable
// between structural updates and never reused, in O(min{log n, D}).
func (a *ufoAdapter) ComponentID(u int) uint64 { return a.f.ComponentID(u) }

func (a *ufoAdapter) BatchConnected(pairs [][2]int) []bool   { return a.f.BatchConnected(pairs) }
func (a *ufoAdapter) BatchSubtreeSum(pairs [][2]int) []int64 { return a.f.BatchSubtreeSum(pairs) }
func (a *ufoAdapter) BatchPathSum(pairs [][2]int) ([]int64, []bool) {
	return a.f.BatchPathSum(pairs)
}
func (a *ufoAdapter) BatchPathMax(pairs [][2]int) ([]int64, []bool) {
	return a.f.BatchPathMax(pairs)
}
func (a *ufoAdapter) BatchLCA(triples [][3]int) ([]int, []bool) { return a.f.BatchLCA(triples) }
func (a *ufoAdapter) BatchLink(edges []Edge) {
	conv := make([]ufo.Edge, len(edges))
	for i, e := range edges {
		conv[i] = ufo.Edge{U: e.U, V: e.V, W: e.W}
	}
	a.f.BatchLink(conv)
}
func (a *ufoAdapter) BatchCut(edges []Edge) {
	conv := make([][2]int, len(edges))
	for i, e := range edges {
		conv[i] = [2]int{e.U, e.V}
	}
	a.f.BatchCut(conv)
}

// UnderlyingUFO exposes the concrete UFO forest behind a facade value for
// callers that need the extended API (validation, heights, batch modes).
func UnderlyingUFO(f Forest) (*ufo.Forest, bool) {
	a, ok := f.(*ufoAdapter)
	if !ok {
		return nil, false
	}
	return a.f, true
}

type lctAdapter struct {
	f *linkcut.Forest
}

func (a *lctAdapter) N() int                         { return a.f.N() }
func (a *lctAdapter) Link(u, v int, w int64)         { a.f.Link(u, v, w) }
func (a *lctAdapter) Cut(u, v int)                   { a.f.Cut(u, v) }
func (a *lctAdapter) Connected(u, v int) bool        { return a.f.Connected(u, v) }
func (a *lctAdapter) HasEdge(u, v int) bool          { return a.f.HasEdge(u, v) }
func (a *lctAdapter) Name() string                   { return "link-cut" }
func (a *lctAdapter) PathSum(u, v int) (int64, bool) { return a.f.PathSum(u, v) }
func (a *lctAdapter) PathMax(u, v int) (int64, bool) { return a.f.PathMax(u, v) }

type ternAdapter struct {
	f    *ternary.Forest
	name string
}

func (a *ternAdapter) N() int                         { return a.f.N() }
func (a *ternAdapter) Link(u, v int, w int64)         { a.f.Link(u, v, w) }
func (a *ternAdapter) Cut(u, v int)                   { a.f.Cut(u, v) }
func (a *ternAdapter) Connected(u, v int) bool        { return a.f.Connected(u, v) }
func (a *ternAdapter) HasEdge(u, v int) bool          { return a.f.HasEdge(u, v) }
func (a *ternAdapter) Name() string                   { return a.name }
func (a *ternAdapter) PathSum(u, v int) (int64, bool) { return a.f.PathSum(u, v) }
func (a *ternAdapter) PathMax(u, v int) (int64, bool) { return a.f.PathMax(u, v) }
func (a *ternAdapter) SetVertexValue(v int, x int64)  { a.f.SetVertexValue(v, x) }
func (a *ternAdapter) SubtreeSum(v, p int) int64      { return a.f.SubtreeSum(v, p) }
func (a *ternAdapter) SetWorkers(k int)               { a.f.Underlying().SetWorkers(k) }
func (a *ternAdapter) Workers() int                   { return a.f.Underlying().Workers() }
func (a *ternAdapter) PhaseStats() PhaseStats         { return fromUFOStats(a.f.Underlying().PhaseStats()) }

// SetQueryMode forces the walk mode of the UFO engine under the
// ternarization (see QueryEngine).
func (a *ternAdapter) SetQueryMode(m QueryMode) { a.f.Underlying().SetQueryMode(ufo.QueryMode(m)) }

// QueryMode reports the configured batch-query walk mode.
func (a *ternAdapter) QueryMode() QueryMode { return QueryMode(a.f.Underlying().QueryMode()) }

// QueryStats reports the cumulative batch-query telemetry of the UFO
// engine under the ternarization.
func (a *ternAdapter) QueryStats() QueryStats {
	return fromUFOQueryStats(a.f.Underlying().QueryStats())
}

func (a *ternAdapter) BatchConnected(pairs [][2]int) []bool   { return a.f.BatchConnected(pairs) }
func (a *ternAdapter) BatchSubtreeSum(pairs [][2]int) []int64 { return a.f.BatchSubtreeSum(pairs) }
func (a *ternAdapter) BatchPathSum(pairs [][2]int) ([]int64, []bool) {
	return a.f.BatchPathSum(pairs)
}
func (a *ternAdapter) BatchPathMax(pairs [][2]int) ([]int64, []bool) {
	return a.f.BatchPathMax(pairs)
}
func (a *ternAdapter) BatchLCA(triples [][3]int) ([]int, []bool) { return a.f.BatchLCA(triples) }
func (a *ternAdapter) BatchLink(edges []Edge) {
	conv := make([]ufo.Edge, len(edges))
	for i, e := range edges {
		conv[i] = ufo.Edge{U: e.U, V: e.V, W: e.W}
	}
	a.f.BatchLink(conv)
}
func (a *ternAdapter) BatchCut(edges []Edge) {
	conv := make([][2]int, len(edges))
	for i, e := range edges {
		conv[i] = [2]int{e.U, e.V}
	}
	a.f.BatchCut(conv)
}

type ettAdapter[N comparable, B seq.Backend[N]] struct {
	f    *ett.Forest[N, B]
	name string
}

func (a *ettAdapter[N, B]) N() int                        { return a.f.N() }
func (a *ettAdapter[N, B]) Link(u, v int, w int64)        { a.f.Link(u, v) }
func (a *ettAdapter[N, B]) Cut(u, v int)                  { a.f.Cut(u, v) }
func (a *ettAdapter[N, B]) Connected(u, v int) bool       { return a.f.Connected(u, v) }
func (a *ettAdapter[N, B]) HasEdge(u, v int) bool         { return a.f.HasEdge(u, v) }
func (a *ettAdapter[N, B]) Name() string                  { return a.name }
func (a *ettAdapter[N, B]) SetVertexValue(v int, x int64) { a.f.SetVertexValue(v, x) }
func (a *ettAdapter[N, B]) SubtreeSum(v, p int) int64     { return a.f.SubtreeSum(v, p) }
func (a *ettAdapter[N, B]) SetWorkers(k int)              { a.f.SetWorkers(k) }
func (a *ettAdapter[N, B]) Workers() int                  { return a.f.Workers() }

// PhaseStats returns the zero value: Euler-tour batch updates run as
// component-grouped fork-join, not as a level-synchronous phase pipeline,
// so there are no phases to attribute.
func (a *ettAdapter[N, B]) PhaseStats() PhaseStats { return PhaseStats{} }

func (a *ettAdapter[N, B]) BatchConnected(pairs [][2]int) []bool { return a.f.BatchConnected(pairs) }
func (a *ettAdapter[N, B]) BatchSubtreeSum(pairs [][2]int) []int64 {
	return a.f.BatchSubtreeSum(pairs)
}
func (a *ettAdapter[N, B]) BatchLink(edges []Edge) {
	conv := make([][2]int, len(edges))
	for i, e := range edges {
		conv[i] = [2]int{e.U, e.V}
	}
	a.f.BatchLink(conv)
}
func (a *ettAdapter[N, B]) BatchCut(edges []Edge) {
	conv := make([][2]int, len(edges))
	for i, e := range edges {
		conv[i] = [2]int{e.U, e.V}
	}
	a.f.BatchCut(conv)
}

// Compile-time interface checks.
var (
	_ BatchForest              = (*ufoAdapter)(nil)
	_ ComponentIDer            = (*ufoAdapter)(nil)
	_ PathQuerier              = (*ufoAdapter)(nil)
	_ SubtreeQuerier           = (*ufoAdapter)(nil)
	_ BatchQuerier             = (*ufoAdapter)(nil)
	_ QueryEngine              = (*ufoAdapter)(nil)
	_ QueryEngine              = (*ternAdapter)(nil)
	_ Forest                   = (*lctAdapter)(nil)
	_ PathQuerier              = (*lctAdapter)(nil)
	_ BatchForest              = (*ternAdapter)(nil)
	_ PathQuerier              = (*ternAdapter)(nil)
	_ SubtreeQuerier           = (*ternAdapter)(nil)
	_ BatchQuerier             = (*ternAdapter)(nil)
	_ BatchForest              = (*ettAdapter[*seq.TreapNode, *seq.Treap])(nil)
	_ BatchConnectivityQuerier = (*ettAdapter[*seq.TreapNode, *seq.Treap])(nil)
)
