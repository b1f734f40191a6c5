package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/gen"
	"repro/internal/msf"
	"repro/internal/rng"
)

// MSFResult is one configuration's measurement of the dynamic minimum
// spanning forest experiment (machine-readable; WriteJSON). The throughput
// kinds are add (build + re-add batches, swap rounds included), delete
// (tree-biased delete batches driving the min-weight replacement search),
// and weight_churn (re-adding deleted edges under fresh weights, the
// swap-heaviest path). kind=verify rows are presence-gated, not
// threshold-gated: Throughput stays zero and the counter fields carry the
// run's structural telemetry plus the final forest weight, so a benchmark
// run that silently stopped maintaining the MSF fails the gate.
type MSFResult struct {
	Input      string  `json:"input"`
	Kind       string  `json:"kind"` // add | delete | weight_churn | verify
	Workers    int     `json:"workers"`
	Ops        int     `json:"ops"`            // edges applied
	Seconds    float64 `json:"seconds"`        // wall time for those ops
	Throughput float64 `json:"throughput_ops"` // ops per second

	// Structural telemetry (kind=verify rows only).
	Swaps       int64 `json:"swaps,omitempty"`
	Promotions  int64 `json:"promotions,omitempty"`
	Rounds      int   `json:"rounds,omitempty"`
	TotalWeight int64 `json:"total_weight,omitempty"`
}

// msfKinds is the reporting order of the per-kind throughput rows.
var msfKinds = []string{"add", "delete", "weight_churn"}

// MSF measures the batch-dynamic minimum spanning forest over the weighted
// graph stand-ins: per input graph and worker count, the weighted graph is
// built in add batches of k, then driven through churn rounds that delete
// a batch of k present edges (tree-biased, so the min-weight replacement
// search runs), re-add them unchanged, and finally re-weight another k
// edges by delete + re-add under fresh weights (the swap-heaviest path,
// measured as weight_churn). The same seeded workload runs at every worker
// count, making the columns self-relative like the other scaling
// experiments; a final verify row per configuration records the run's swap
// / promotion counts and the closing forest weight, which the determinism
// contract fixes across worker counts.
func MSF(w io.Writer, n, k int, workers []int, seed uint64) []MSFResult {
	if len(workers) == 0 {
		workers = DefaultWorkerCounts()
	}
	const rounds = 3
	graphs := []gen.Graph{
		gen.RoadGraph(n, seed),
		gen.WebGraph(n, 4, seed+1),
		gen.SocialGraph(n, 8, seed+3),
	}
	fmt.Fprintf(w, "# Dynamic MSF: weighted add/delete/re-weight batches over the graph stand-ins, n=%d, k=%d, GOMAXPROCS=%d\n",
		n, k, runtime.GOMAXPROCS(0))
	cols := make([]string, 0, len(workers)+1)
	for _, wk := range workers {
		cols = append(cols, fmt.Sprintf("w=%d", wk))
	}
	cols = append(cols, "speedup")
	var out []MSFResult
	for _, gr := range graphs {
		edges := weightedSimple(gr, seed+7)
		fmt.Fprintf(w, "## input %s (|V|=%d |E|=%d simple; ops/s per kind)\n", gr.Name, gr.N, len(edges))
		header(w, "kind", cols)
		secs := make(map[string][]float64, len(msfKinds))
		ops := make(map[string]int, len(msfKinds))
		for _, kind := range msfKinds {
			secs[kind] = make([]float64, len(workers))
		}
		var verifyRows []MSFResult
		for wi, wk := range workers {
			m := msf.New(gr.N)
			m.SetWorkers(wk)
			r := rng.New(seed + 11) // identical workload at every worker count
			var agg msf.PhaseStats
			start := time.Now()
			for lo := 0; lo < len(edges); lo += k {
				must(m.BatchAddEdges(edges[lo:min(lo+k, len(edges))]))
				agg.Accumulate(m.PhaseStats())
			}
			secs["add"][wi] += time.Since(start).Seconds()
			ops["add"] += len(edges)

			for round := 0; round < rounds; round++ {
				// Churn: delete k present edges biased toward the tree (so
				// the replacement search runs), then re-add them unchanged.
				churn := sampleMSFPresent(m, edges, k, r)
				start = time.Now()
				must(m.BatchDeleteEdges(asDeletes(churn)))
				secs["delete"][wi] += time.Since(start).Seconds()
				ops["delete"] += len(churn)
				agg.Accumulate(m.PhaseStats())

				start = time.Now()
				must(m.BatchAddEdges(churn))
				secs["add"][wi] += time.Since(start).Seconds()
				ops["add"] += len(churn)
				agg.Accumulate(m.PhaseStats())

				// Re-weight: delete another k edges and re-add them under
				// fresh weights — every re-add re-fights the cycle property,
				// so this is where the swap rounds earn their keep. Only the
				// re-add is charged to weight_churn.
				rew := sampleMSFPresent(m, edges, k, r)
				must(m.BatchDeleteEdges(asDeletes(rew)))
				agg.Accumulate(m.PhaseStats())
				for i := range rew {
					rew[i].W = r.Int63() % (1 << 20)
				}
				start = time.Now()
				must(m.BatchAddEdges(rew))
				secs["weight_churn"][wi] += time.Since(start).Seconds()
				ops["weight_churn"] += len(rew)
				agg.Accumulate(m.PhaseStats())
				// Restore the original weights so every round (and every
				// worker count) churns the same live edge set.
				must(m.BatchDeleteEdges(asDeletes(rew)))
				must(m.BatchAddEdges(restoreWeights(rew, edges)))
			}
			verifyRows = append(verifyRows, MSFResult{
				Input: gr.Name, Kind: "verify", Workers: wk,
				Swaps: agg.Swaps, Promotions: agg.Promotions, Rounds: agg.Rounds,
				TotalWeight: m.TotalWeight(),
			})
		}
		for _, kind := range msfKinds {
			perCfg := ops[kind] / len(workers)
			fmt.Fprintf(w, "%-14s", kind)
			var base, maxThr float64
			maxWorkers := 0
			for wi, wk := range workers {
				thr := float64(perCfg) / secs[kind][wi]
				out = append(out, MSFResult{
					Input: gr.Name, Kind: kind, Workers: wk,
					Ops: perCfg, Seconds: secs[kind][wi], Throughput: thr,
				})
				if wk == 1 {
					base = thr
				}
				if wk > maxWorkers {
					maxWorkers, maxThr = wk, thr
				}
				fmt.Fprintf(w, " %12.0f", thr)
			}
			if base > 0 {
				fmt.Fprintf(w, " %11.2fx", maxThr/base)
			} else {
				fmt.Fprintf(w, " %12s", "n/a")
			}
			fmt.Fprintln(w)
		}
		for _, vr := range verifyRows {
			fmt.Fprintf(w, "# verify w=%d: swaps=%d promotions=%d rounds=%d total_weight=%d\n",
				vr.Workers, vr.Swaps, vr.Promotions, vr.Rounds, vr.TotalWeight)
		}
		out = append(out, verifyRows...)
	}
	fmt.Fprintln(w, "# (columns: ops/second at each worker count; speedup = highest worker count / workers=1)")
	return out
}

// weightedSimple normalizes a graph stand-in's edge list to simple edges
// and stamps deterministic weights (the stand-ins are generated
// unit-weighted).
func weightedSimple(gr gen.Graph, seed uint64) []msf.Edge {
	raw := make([]msf.Edge, len(gr.Edges))
	for i, e := range gr.Edges {
		raw[i] = msf.Edge{U: e[0], V: e[1], W: 1}
	}
	edges := msf.SimplifyEdges(raw)
	r := rng.New(seed)
	for i := range edges {
		edges[i].W = r.Int63() % (1 << 20)
	}
	return edges
}

// sampleMSFPresent picks k distinct live edges, tree edges first (so
// delete batches sever the forest and drive the replacement search), with
// a deterministic rng-driven stride through the non-tree tail.
func sampleMSFPresent(m *msf.BatchDynamicMSF, edges []msf.Edge, k int, r *rng.SplitMix64) []msf.Edge {
	if k > len(edges) {
		k = len(edges)
	}
	out := make([]msf.Edge, 0, k)
	for i := 0; len(out) < k && i < len(edges); i++ {
		if m.IsTreeEdge(edges[i].U, edges[i].V) {
			out = append(out, edges[i])
		}
	}
	seen := make(map[int]struct{}, k)
	for i := r.Intn(len(edges)); len(out) < k; i = (i + 1 + r.Intn(7)) % len(edges) {
		e := edges[i]
		if _, dup := seen[i]; dup || m.IsTreeEdge(e.U, e.V) || !m.HasEdge(e.U, e.V) {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, e)
	}
	return out[:k]
}

// asDeletes strips weights for the delete form (weights are ignored
// there, but copying keeps the sample reusable for the re-add).
func asDeletes(es []msf.Edge) []msf.Edge {
	out := make([]msf.Edge, len(es))
	for i, e := range es {
		out[i] = msf.Edge{U: e.U, V: e.V}
	}
	return out
}

// restoreWeights maps a re-weighted sample back to its original weights
// from the master edge list.
func restoreWeights(sample []msf.Edge, edges []msf.Edge) []msf.Edge {
	orig := make(map[[2]int]int64, len(sample))
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		orig[[2]int{u, v}] = e.W
	}
	out := make([]msf.Edge, len(sample))
	for i, e := range sample {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		out[i] = msf.Edge{U: e.U, V: e.V, W: orig[[2]int{u, v}]}
	}
	return out
}
