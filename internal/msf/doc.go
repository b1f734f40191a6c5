// Package msf maintains a batch-dynamic minimum spanning forest of a
// weighted undirected graph on top of a single ufo.Forest, the weighted
// twin of internal/conn: where conn keeps any spanning forest, msf keeps
// the one minimizing total edge weight, using the forest's weighted path
// aggregates for the cycle checks connectivity never needs.
//
// Uniqueness contract: edges are ordered by (weight, normalized edge key),
// a total order, so the minimum spanning forest is unique and every batch
// leaves exactly that forest — the same answer a from-scratch Kruskal
// recompute over the live edge set produces, at every worker count. Equal
// weights break toward the smaller key for inclusion (equivalently: the
// evicted maximum breaks toward the larger key), matching the engine's
// PathMaxEdge/BatchPathMaxEdge tie rule.
//
// Adds classify against the forest in parallel (ComponentID reads plus the
// batch-order union-find from internal/search): non-cycle-closing edges
// link directly in one BatchLink. Cycle-closing candidates then run
// batched cycle-max rounds: BatchPathMaxEdge answers, for every candidate
// at once, the heaviest tree edge on its endpoint path. Candidates that
// beat it swap in (cut the evicted edge, link the candidate); candidates
// that do not, and the evicted edges, settle into the per-vertex non-tree
// incidence set at once, because a round of improving swaps only keeps
// their endpoints joined by lighter edges. A winner whose evictee an
// earlier winner claimed defers to the next round, and the rounds end when
// no winner is deferred: each candidate's cycle is checked once, plus once
// per deferral.
//
// Deletes drop non-tree edges with no structural work, cut tree edges in
// one BatchCut, and repair with the shared replacement-search core
// (internal/search): witnesses group by pre-cut component, each group runs
// the skip-largest round loop, and each sweep scans its whole class —
// unlike conn, no early exit at the first crossing chunk — to promote the
// single minimum-(weight, key) crossing edge, the cut-property-safe
// choice (Borůvka's rule, one promotion per sweep).
//
// Batch preconditions mirror conn: every batch first runs the shared
// pre-mutation check of internal/admit, and an out-of-range vertex, a
// self loop, an in-batch repeat in either orientation, an add of a
// present edge, or a delete of an absent edge makes BatchAddEdges or
// BatchDeleteEdges return the check's typed error before any mutation.
// The facade (ufotree.DynamicMSF) passes the error through; its Must
// forms panic with it.
//
// Concurrency contract: batches must not run concurrently with each other
// or with queries; read-only queries may run concurrently with each other
// between batches. SetWorkers propagates to the underlying forest.
package msf
