package ufo

import (
	"fmt"
	"sync/atomic"

	"repro/internal/admit"
	"repro/internal/parallel"
)

// Parallel batch queries (the read-side twin of the batch-update engine).
//
// Between batch updates the cluster hierarchy is immutable, so a batch of
// queries can fan out over the forest's configured worker count (SetWorkers
// — the same knob that drives batch updates) with the fork-join primitives
// of internal/parallel. Two walk modes exist per batch:
//
//   - Independent: every query runs the single-op walk from query.go /
//     lca.go on its own. Queries keep all state in stack values, so a
//     worker needs no heap scratch at all.
//   - Shared traversal (sharedquery.go): workers cooperate across the
//     queries of their range — leaf-to-root walks are computed once per
//     distinct endpoint (root memo for connectivity, representative-path
//     chains for path aggregates) and reused by every query that touches
//     them, so q skewed queries cost O(unique clusters touched) instead of
//     O(q · height).
//
// QueryAuto (the default) picks per batch from the batch size and the
// endpoint-duplication ratio; SetQueryMode forces a mode, and QueryStats
// reports which mode answered what.
//
// Concurrency contract: batch queries may run concurrently with each other
// but not with updates, exactly like the single-op queries they fan out.
// A precondition panic raised by any query (e.g. a non-adjacent
// BatchSubtreeSum pair) is re-raised on the calling goroutine after all
// workers drain (see parallel.WorkersForRange).

// QueryMode selects how batch queries walk the hierarchy.
type QueryMode uint8

const (
	// QueryAuto picks per batch between the independent fan-out and the
	// shared traversal: shared when the batch has at least sharedMinBatch
	// queries and the average endpoint appears at least twice.
	QueryAuto QueryMode = iota
	// QueryIndependent forces the fan-out of single-op walks.
	QueryIndependent
	// QueryShared forces the cooperative shared-traversal walker.
	QueryShared
)

// sharedMinBatch is the smallest batch QueryAuto will hand to the shared
// walker: below it the per-batch scratch setup (epoch bump + endpoint
// count) costs more than the duplicate walks it saves.
const sharedMinBatch = 32

// SetQueryMode forces the batch-query walk mode. The default, QueryAuto,
// chooses per batch; benchmarks and tests pin QueryIndependent or
// QueryShared to compare the two. Like SetWorkers this must not race with
// in-flight batch queries.
func (f *Forest) SetQueryMode(m QueryMode) { f.queryMode = m }

// QueryMode reports the configured batch-query walk mode.
func (f *Forest) QueryMode() QueryMode { return f.queryMode }

// queryCounters is the mutable telemetry behind QueryStats. Batch queries
// may run concurrently with each other, so everything is atomic and
// cumulative (there is no "most recent batch" to reset to, unlike the
// update engine's PhaseStats).
type queryCounters struct {
	batches, queries     atomic.Int64
	indepBatches         atomic.Int64
	sharedBatches        atomic.Int64
	sharedQueries        atomic.Int64
	sharedEndpoints      atomic.Int64
	sharedChainClusters  atomic.Int64
	sharedMemoizedRoots  atomic.Int64
	sharedMemoizedChains atomic.Int64
}

// QueryStats is cumulative batch-query telemetry: how many batches ran,
// which walk mode answered them, and how much work the shared walker
// deduplicated. PhaseStats' read-side twin, but accumulated since forest
// creation — snapshot twice and subtract to meter an interval.
type QueryStats struct {
	// Batches counts batch entry-point calls; Queries counts the
	// individual queries inside them.
	Batches int64 `json:"batches"`
	Queries int64 `json:"queries"`
	// IndependentBatches and SharedBatches split Batches by the walk mode
	// that answered them (BatchSubtreeSum always counts as independent).
	IndependentBatches int64 `json:"independent_batches"`
	SharedBatches      int64 `json:"shared_batches"`
	// SharedQueries counts queries answered by shared traversal.
	SharedQueries int64 `json:"shared_queries"`
	// SharedEndpoints counts distinct endpoints the shared walker resolved
	// fresh; SharedMemoHits counts endpoint lookups it answered from an
	// already-built walk (the deduplicated work).
	SharedEndpoints int64 `json:"shared_endpoints"`
	SharedMemoHits  int64 `json:"shared_memo_hits"`
	// SharedClusterVisits counts cluster hops taken building shared walks
	// — the realized cost, O(unique clusters touched) per batch.
	SharedClusterVisits int64 `json:"shared_cluster_visits"`
}

// QueryStats returns the cumulative batch-query telemetry. Safe to call
// concurrently with batch queries (counters are atomic); batches still in
// flight may be partially counted.
func (f *Forest) QueryStats() QueryStats {
	return QueryStats{
		Batches:             f.qc.batches.Load(),
		Queries:             f.qc.queries.Load(),
		IndependentBatches:  f.qc.indepBatches.Load(),
		SharedBatches:       f.qc.sharedBatches.Load(),
		SharedQueries:       f.qc.sharedQueries.Load(),
		SharedEndpoints:     f.qc.sharedEndpoints.Load(),
		SharedMemoHits:      f.qc.sharedMemoizedRoots.Load() + f.qc.sharedMemoizedChains.Load(),
		SharedClusterVisits: f.qc.sharedChainClusters.Load(),
	}
}

// noteBatch records one batch entry-point call in the telemetry.
func (f *Forest) noteBatch(q int, shared bool) {
	f.qc.batches.Add(1)
	f.qc.queries.Add(int64(q))
	if shared {
		f.qc.sharedBatches.Add(1)
		f.qc.sharedQueries.Add(int64(q))
	} else {
		f.qc.indepBatches.Add(1)
	}
}

// forQueries runs body over disjoint subranges of [0, n) queries using the
// forest's worker count. Queries are read-only and, like the update phases
// since the level-synchronous rank-tree repair, always run at the full
// configured worker count. The grain is the per-forest queryGrain tunable
// (default 64; tests lower it, like parGrain, to drive the parallel path
// on tiny batches — a per-forest field so parallel tests cannot race on a
// shared package variable).
func (f *Forest) forQueries(n int, body func(lo, hi int)) {
	parallel.WorkersForRangeAuto(f.workers, n, f.queryGrain, func(_, lo, hi int) {
		chaos()
		body(lo, hi)
	})
}

// parQueries reports whether forQueries will actually fan out n queries.
func (f *Forest) parQueries(n int) bool {
	return parallel.WillFanOut(f.workers, n, f.queryGrain)
}

// forQueriesShared runs body over at most one contiguous subrange per
// worker. The shared walker's memo lives in per-range scratch, so unlike
// the independent fan-out — which favors small chunks for load balance —
// shared mode wants ranges as large as possible: every extra chunk is a
// fresh scratch that re-resolves the batch's hot endpoints. queryGrain
// still floors the range size so tiny batches take the serial path.
func (f *Forest) forQueriesShared(n int, body func(lo, hi int)) {
	grain := (n + f.workers - 1) / f.workers
	if grain < f.queryGrain {
		grain = f.queryGrain
	}
	parallel.WorkersForRangeAuto(f.workers, n, grain, func(_, lo, hi int) {
		chaos()
		body(lo, hi)
	})
}

// BatchConnected answers Connected for every (u,v) pair in parallel.
func (f *Forest) BatchConnected(pairs [][2]int) []bool {
	out := make([]bool, len(pairs))
	if f.choosePairsShared(pairs) {
		f.noteBatch(len(pairs), true)
		f.batchConnectedShared(pairs, out)
		return out
	}
	f.noteBatch(len(pairs), false)
	f.forQueries(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.Connected(pairs[i][0], pairs[i][1])
		}
	})
	return out
}

// BatchPathSum answers PathSum for every (u,v) pair in parallel. ok[i] is
// false when the pair is disconnected.
func (f *Forest) BatchPathSum(pairs [][2]int) ([]int64, []bool) {
	out := make([]int64, len(pairs))
	ok := make([]bool, len(pairs))
	if f.choosePairsShared(pairs) {
		f.noteBatch(len(pairs), true)
		f.batchAggShared(pairs, func(i int, sum, _ int64, _ uint64, _ int32, okq bool) {
			out[i], ok[i] = sum, okq
		})
		return out, ok
	}
	f.noteBatch(len(pairs), false)
	f.forQueries(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], ok[i] = f.PathSum(pairs[i][0], pairs[i][1])
		}
	})
	return out, ok
}

// BatchPathMax answers PathMax for every (u,v) pair in parallel. ok[i] is
// false when the pair is disconnected or u == v.
func (f *Forest) BatchPathMax(pairs [][2]int) ([]int64, []bool) {
	out := make([]int64, len(pairs))
	ok := make([]bool, len(pairs))
	if f.choosePairsShared(pairs) {
		f.noteBatch(len(pairs), true)
		f.batchAggShared(pairs, func(i int, _, mx int64, _ uint64, _ int32, okq bool) {
			// Mirror the single-op wrapper: u == v answers (0, false).
			if pairs[i][0] == pairs[i][1] {
				out[i], ok[i] = 0, false
				return
			}
			out[i], ok[i] = mx, okq
		})
		return out, ok
	}
	f.noteBatch(len(pairs), false)
	f.forQueries(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], ok[i] = f.PathMax(pairs[i][0], pairs[i][1])
		}
	})
	return out, ok
}

// BatchPathMaxEdge answers PathMaxEdge for every (u,v) pair in parallel:
// w[i] is the weight of the maximum edge on the pairs[i] path and
// (x[i], y[i]) its normalized endpoints, with equal weights broken toward
// the larger edge key exactly like the single-op wrapper. ok[i] is false
// when the pair is disconnected or u == v.
func (f *Forest) BatchPathMaxEdge(pairs [][2]int) (w []int64, x, y []int, ok []bool) {
	w = make([]int64, len(pairs))
	x = make([]int, len(pairs))
	y = make([]int, len(pairs))
	ok = make([]bool, len(pairs))
	if f.choosePairsShared(pairs) {
		f.noteBatch(len(pairs), true)
		f.batchAggShared(pairs, func(i int, _, mx int64, mxKey uint64, _ int32, okq bool) {
			if pairs[i][0] == pairs[i][1] || !okq {
				return
			}
			w[i] = mx
			x[i], y[i] = decodeEdgeKey(mxKey)
			ok[i] = true
		})
		return w, x, y, ok
	}
	f.noteBatch(len(pairs), false)
	f.forQueries(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w[i], x[i], y[i], ok[i] = f.PathMaxEdge(pairs[i][0], pairs[i][1])
		}
	})
	return w, x, y, ok
}

// BatchPathHops answers PathHops for every (u,v) pair in parallel.
func (f *Forest) BatchPathHops(pairs [][2]int) ([]int, []bool) {
	out := make([]int, len(pairs))
	ok := make([]bool, len(pairs))
	if f.choosePairsShared(pairs) {
		f.noteBatch(len(pairs), true)
		f.batchAggShared(pairs, func(i int, _, _ int64, _ uint64, cnt int32, okq bool) {
			out[i], ok[i] = int(cnt), okq
		})
		return out, ok
	}
	f.noteBatch(len(pairs), false)
	f.forQueries(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], ok[i] = f.PathHops(pairs[i][0], pairs[i][1])
		}
	})
	return out, ok
}

// BatchSubtreeSum answers SubtreeSum for every (v,p) pair in parallel.
// Every p must be adjacent to its v (the single-op precondition); a
// violating pair panics identically to SubtreeSum, before any parallel
// fan-out, so the panic is deterministic regardless of worker count. The
// pre-pass only runs when the batch will actually fan out — a serial
// batch already panics deterministically at the first bad pair. Subtree
// queries have no root-path walk to share, so they always run in the
// independent mode regardless of SetQueryMode.
func (f *Forest) BatchSubtreeSum(pairs [][2]int) []int64 {
	if f.parQueries(len(pairs)) {
		for _, pr := range pairs {
			if !f.a.at(f.leaf(pr[0])).adj.has(admit.Key(pr[0], pr[1])) {
				panic(fmt.Sprintf("ufo: subtree query with non-adjacent (%d,%d)", pr[0], pr[1]))
			}
		}
	}
	f.noteBatch(len(pairs), false)
	out := make([]int64, len(pairs))
	f.forQueries(len(pairs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f.SubtreeSum(pairs[i][0], pairs[i][1])
		}
	})
	return out
}

// BatchLCA answers LCA for every (u,v,r) triple in parallel: out[i] is the
// lowest common ancestor of triples[i][0] and triples[i][1] when the tree
// is rooted at triples[i][2]; ok[i] is false when the triple spans more
// than one tree. In shared mode the three hop-distance queries of every
// triple ride the per-endpoint chains; the SelectOnPath descent stays
// per-triple (it visits O(h) distinct clusters of its own).
func (f *Forest) BatchLCA(triples [][3]int) ([]int, []bool) {
	out := make([]int, len(triples))
	ok := make([]bool, len(triples))
	if f.chooseTriplesShared(triples) {
		f.noteBatch(len(triples), true)
		f.batchLCAShared(triples, out, ok)
		return out, ok
	}
	f.noteBatch(len(triples), false)
	f.forQueries(len(triples), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], ok[i] = f.LCA(triples[i][0], triples[i][1], triples[i][2])
		}
	})
	return out, ok
}
