// Package ufo implements UFO trees (unbounded fan-out trees), the paper's
// primary contribution: a parallel batch-dynamic trees data structure based
// on parallel tree contraction that supports input trees of arbitrary
// degree directly (no ternarization) and answers connectivity, path,
// subtree, and non-local queries.
//
// # Structure
//
// A UFO tree represents rounds of tree contraction: level-0 clusters are the
// input vertices; each round merges clusters along a maximal set of allowed
// merges (degree-1/degree-1, degree-1/degree-2, degree-2/degree-2, and a
// high-degree cluster with all of its degree-1 neighbors — the unbounded
// fan-out rule). Every live cluster acquires a parent each round until its
// component contracts to a single degree-0 cluster. Theorems 4.1/4.2 of the
// paper give height O(min{log n, ceil(D/2)}).
//
// # Memory layout
//
// Clusters live in a per-forest arena (arena.go): chunked flat rows
// addressed by 32-bit handles (cref) instead of pointers. Chunks never
// move, so row pointers taken by a worker stay valid across growth; slots
// freed by one batch are recycled by later ones, so batch updates over a
// stable working set allocate nothing (clusters from the free list,
// overflow adjacency tables from a pool, engine scratch and pre-bound
// phase bodies reused across runs). Handles are reused and are therefore
// not identity — uid, a never-reused 64-bit counter, identifies clusters
// across deletions (ComponentID, lock striping). Leaves occupy handles
// 0..n-1 permanently; the zero handle is valid (leaf 0) and the null
// handle is nilRef. Rank-tree state for EnableSubtreeMax forests lives in
// a parallel cold row so the hot row stays compact for the phases and
// queries. Forest.ArenaStats exposes the footprint; Validate enforces the
// free-list contract in the test suites.
//
// # Updates
//
// Updates use one engine for both the sequential (k=1) and batch-parallel
// configurations (one engine, no sequential twin): the batch algorithm of
// §5.2 with lazy edge-deletion propagation (E⁻ sets), conditional deletion
// that preserves high-degree and high-fanout clusters, and maximal
// reclustering level by level. The engine is a declarative phase pipeline
// (pipeline.go): three seed phases once per batch, five level phases per
// contraction round, each with exactly one body that runs inline at
// workers=1 and fans out above the fork grain, and each timed into
// PhaseStats. A cluster emptied mid-batch is torn down as soon as no
// worker can still be walking through it — at once on the inline path,
// right after the phase when fanned (deleteEmpty) — and cascades upward,
// so the arena never accumulates unreachable rows the way a
// garbage-collected representation could simply abandon them.
//
// # Contracts
//
// Worker-count clamp rules (SetWorkers): k <= 0 defaults to
// runtime.GOMAXPROCS(0); k == 1 runs every pipeline phase inline on the
// calling goroutine; counts above GOMAXPROCS are allowed
// (oversubscription). Every structural phase of every configuration —
// trackMax forests included — runs at the configured count.
//
// Pre-mutation panic contract (BatchLink/BatchCut): every batch first runs
// the shared check of internal/admit. An adversarial batch — an endpoint
// out of range, a self loop, an edge repeated inside one batch in either
// orientation, linking a present edge, cutting an absent edge — panics
// with the check's error (errors.Is the matching admit.Err* value) before
// any structural change, so a recovered panic leaves the forest exactly as
// it was, at every worker count. Links that would close a cycle are not
// checked.
//
// Queries are read-only between updates: batch queries may run
// concurrently with each other, never with updates.
package ufo
