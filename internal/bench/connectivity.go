package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/conn"
	"repro/internal/gen"
	"repro/internal/rng"
)

// ConnResult is one configuration's measurement of the dynamic-graph
// connectivity experiment (machine-readable; WriteJSON). kind=level rows
// carry the delete batches' per-level replacement-search telemetry instead
// of a throughput: their Level tags the level index (a string so benchdiff
// keys configurations by it), the counter fields hold the accumulated
// sweep accounting, and Throughput stays zero, which benchdiff's compare
// skips — the rows are presence-gated (-require kind=level), not
// threshold-gated.
type ConnResult struct {
	Input      string  `json:"input"`
	Kind       string  `json:"kind"` // add | delete | connected | level
	Workers    int     `json:"workers"`
	Ops        int     `json:"ops"`            // edges applied or queries answered
	Seconds    float64 `json:"seconds"`        // wall time for those ops
	Throughput float64 `json:"throughput_ops"` // ops per second

	// Per-level search telemetry (kind=level rows only).
	Level         string `json:"level,omitempty"`
	Sweeps        int64  `json:"sweeps,omitempty"`
	Scanned       int64  `json:"scanned,omitempty"`
	TreePushed    int64  `json:"tree_pushed,omitempty"`
	NontreePushed int64  `json:"nontree_pushed,omitempty"`
	Promoted      int64  `json:"promoted,omitempty"`
}

// connKinds is the reporting order of the per-kind rows.
var connKinds = []string{"add", "delete", "connected"}

// Connectivity measures the batch-dynamic graph layer over the Table-2
// graph stand-ins: per input graph and worker count, the graph is built in
// add batches of k (cycle edges landing in the non-tree structure), then
// driven through churn rounds that delete a batch of k present edges —
// tree edges included, so the replacement search runs — re-add them, and
// answer q batched connectivity queries. The same seeded workload runs at
// every worker count, making the columns self-relative like the other
// scaling experiments.
func Connectivity(w io.Writer, n, k, q int, workers []int, seed uint64) []ConnResult {
	if len(workers) == 0 {
		workers = DefaultWorkerCounts()
	}
	const rounds = 3
	graphs := []gen.Graph{
		gen.RoadGraph(n, seed),
		gen.WebGraph(n, 4, seed+1),
		gen.SocialGraph(n, 8, seed+3),
	}
	fmt.Fprintf(w, "# Dynamic connectivity: add/delete/query batches over the graph stand-ins, n=%d, k=%d, q=%d, GOMAXPROCS=%d\n",
		n, k, q, runtime.GOMAXPROCS(0))
	cols := make([]string, 0, len(workers)+1)
	for _, wk := range workers {
		cols = append(cols, fmt.Sprintf("w=%d", wk))
	}
	cols = append(cols, "speedup")
	var out []ConnResult
	for _, gr := range graphs {
		edges := conn.SimplifyEdges(gr.Edges)
		fmt.Fprintf(w, "## input %s (|V|=%d |E|=%d simple; ops/s per kind)\n", gr.Name, gr.N, len(edges))
		header(w, "kind", cols)
		secs := make(map[string][]float64, len(connKinds))
		ops := make(map[string]int, len(connKinds))
		for _, kind := range connKinds {
			secs[kind] = make([]float64, len(workers))
		}
		var levelRows []ConnResult
		for wi, wk := range workers {
			g := conn.New(gr.N)
			g.SetWorkers(wk)
			r := rng.New(seed + 5) // identical workload at every worker count
			var delStats conn.PhaseStats
			start := time.Now()
			for lo := 0; lo < len(edges); lo += k {
				must(g.BatchAddEdges(edges[lo:min(lo+k, len(edges))]))
			}
			secs["add"][wi] += time.Since(start).Seconds()
			ops["add"] += len(edges)

			for round := 0; round < rounds; round++ {
				// Churn: delete k random present edges, then re-add them.
				churn := samplePresent(edges, k, r)
				start = time.Now()
				must(g.BatchDeleteEdges(churn))
				secs["delete"][wi] += time.Since(start).Seconds()
				ops["delete"] += len(churn)
				delStats.Accumulate(g.PhaseStats())

				pairs := make([][2]int, q)
				for i := range pairs {
					pairs[i] = [2]int{r.Intn(gr.N), r.Intn(gr.N)}
				}
				start = time.Now()
				g.BatchConnected(pairs)
				secs["connected"][wi] += time.Since(start).Seconds()
				ops["connected"] += q

				start = time.Now()
				must(g.BatchAddEdges(churn))
				secs["add"][wi] += time.Since(start).Seconds()
				ops["add"] += len(churn)
			}
			// Per-level replacement-search accounting across the delete
			// batches: how deep push-downs reached and where the sweep
			// work went. Always at least the level-0 row, so the kind is
			// never silently absent on replacement-free runs.
			pl := delStats.PerLevel
			if len(pl) == 0 {
				pl = []conn.LevelStat{{Level: 0}}
			}
			for _, ls := range pl {
				levelRows = append(levelRows, ConnResult{
					Input: gr.Name, Kind: "level", Workers: wk,
					Level:  fmt.Sprintf("%d", ls.Level),
					Sweeps: ls.Sweeps, Scanned: ls.Scanned,
					TreePushed: ls.TreePushed, NontreePushed: ls.NontreePushed,
					Promoted: ls.Promoted,
				})
			}
		}
		for _, kind := range connKinds {
			perCfg := ops[kind] / len(workers)
			fmt.Fprintf(w, "%-14s", kind)
			var base, maxThr float64
			maxWorkers := 0
			for wi, wk := range workers {
				thr := float64(perCfg) / secs[kind][wi]
				out = append(out, ConnResult{
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
		for _, lr := range levelRows {
			fmt.Fprintf(w, "# level %s w=%d: sweeps=%d scanned=%d tree_pushed=%d nontree_pushed=%d promoted=%d\n",
				lr.Level, lr.Workers, lr.Sweeps, lr.Scanned, lr.TreePushed, lr.NontreePushed, lr.Promoted)
		}
		out = append(out, levelRows...)
	}
	fmt.Fprintln(w, "# (columns: ops/second at each worker count; speedup = highest worker count / workers=1)")
	return out
}

// samplePresent picks k distinct edges from the live edge list without
// replacement, deterministically for a given rng state. The benchmark
// deletes and re-adds the sample, so the live set is always the full list
// at sampling time.
func samplePresent(edges []conn.Edge, k int, r *rng.SplitMix64) []conn.Edge {
	if k > len(edges) {
		k = len(edges)
	}
	idx := make(map[int]struct{}, k)
	for len(idx) < k {
		idx[r.Intn(len(edges))] = struct{}{}
	}
	picks := make([]int, 0, k)
	for i := range idx {
		picks = append(picks, i)
	}
	sort.Ints(picks)
	out := make([]conn.Edge, k)
	for i, p := range picks {
		out[i] = edges[p]
	}
	return out
}

// must panics on a batch the graph layers refuse: the experiments build
// valid batches by construction, so a refusal is a bug in the workload,
// not a data point.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
