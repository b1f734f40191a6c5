// Package conn implements parallel batch-dynamic graph connectivity on
// top of the UFO forest: the first layer of this repository that maintains
// an arbitrary undirected graph, not just a forest.
//
// The construction follows the shape of "Batch-Parallel Euler Tour Trees"
// (Tseng, Dhulipala, Blelloch) and the multi-level
// Holm/de Lichtenberg/Thorup connectivity structures built on such
// forests. Every edge carries a level in [0, Levels()); level 0 is the
// top. Level i owns a ufo.Forest f[i] that is a spanning forest of the
// subgraph of edges at level i or deeper, so f[0] spans the whole graph
// and f[0] ⊇ f[1] ⊇ ... edge-wise: a tree edge at level ℓ is linked in
// every f[0..ℓ]. Non-tree edges are bucketed per (vertex, level).
// Connectivity queries are answered entirely by f[0]; everything deeper
// exists to make replacement search cheap. Levels are materialized
// lazily: a fresh structure is exactly the old single-forest design
// until churn pushes an edge down, and NewWithLevels(n, 1) pins that
// degenerate shape permanently.
//
//   - BatchAddEdges classifies the batch in parallel (component ids are
//     read-only root walks) and builds the batch-internal spanning
//     structure with a union-find over component ids, so one BatchLink
//     extends f[0] and the remaining edges become non-tree edges —
//     instead of panicking, which is what the forest layer below does.
//     New edges always enter at level 0.
//   - BatchDeleteEdges removes non-tree edges with pure bookkeeping, cuts
//     each tree edge out of every forest that holds it (one BatchCut per
//     level), and then runs the replacement search level by level from
//     the deepest cut upward. At level i each severed piece of f[i] is
//     swept through its level-i non-tree buckets in parallel
//     (internal/parallel fan-out at the configured SetWorkers count),
//     skipping the group's largest piece; the first crossing edge found
//     is promoted: it leaves the non-tree buckets and is linked into
//     every f[0..i]. Edges a sweep scanned without finding a crossing
//     are pushed down one level — tree edges of the swept piece to
//     f[i+1], scanned-but-internal non-tree edges to the level-(i+1)
//     buckets — provided the piece is small enough (a level-i component
//     never exceeds n>>i vertices), so no sweep ever rescans an edge at
//     the same level within one insertion epoch. Forest links discovered
//     during the search are deferred into per-level pending batches and
//     flushed as one BatchLink per level, keeping every forest static
//     while it is being swept.
//
// The tree/non-tree split, every promotion decision, and every push-down
// reduce over minimum edge keys in deterministic batch order with
// deterministic sweep-chunk boundaries, so the structure — levels,
// forests, and buckets, not just the connectivity relation — evolves
// identically at every worker count.
//
// # Contracts
//
// Worker-count clamp rules match the forest layer: SetWorkers(k) with
// k <= 0 defaults to runtime.GOMAXPROCS(0), k == 1 is fully sequential,
// and counts above GOMAXPROCS are allowed (oversubscription).
// NewWithLevels clamps its depth to [1, DefaultLevels(n)].
//
// Every batch first runs the shared pre-mutation check of internal/admit,
// the one the forest layer panics with. Here an adversarial batch — an
// out-of-range vertex, a self loop, an edge repeated inside the batch in
// either orientation, adding an edge already present (tree or non-tree),
// deleting an absent edge — is refused: BatchAddEdges and
// BatchDeleteEdges return the check's typed error before any mutation,
// leaving the graph exactly as it was. (The facade's DynamicGraph passes
// the error through; its Must forms panic with it.)
//
// Batches must not run concurrently with each other or with queries;
// read-only queries may run concurrently with each other between batches
// (the forest batch-query contract).
//
// Per-batch telemetry follows the forest engine's PhaseStats idiom: every
// pipeline phase (classify, forest_cut, search, push_down, promote,
// forest_link, nontree) is timed on the monotonic clock with item counts,
// reset per batch, aggregated across a run with Accumulate. Delete
// batches additionally report Depth (configured levels), Rounds (sweep
// rounds run), Demotions, and PerLevel rows (sweeps, scanned edges,
// push-down and promotion counts per level). Validate checks the full
// level-structure invariant set on demand: per-forest structural
// validation, level agreement between records and forests, bucket
// membership, counter consistency, and the n>>i component-size bound.
package conn
