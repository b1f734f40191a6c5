package main

import (
	"fmt"
	"io"

	ufotree "repro"
	"repro/internal/gen"
	"repro/internal/rng"
)

// msfSizes are social-msf's input sizes: gen.SocialGraph(n, deg), batches
// of k edges, q connectivity queries per round, a Kruskal check every
// kruskalEvery rounds, perSec measured rounds per second of a run (see
// epochRounds).
type msfSizes struct {
	n, deg, k, q, warmup, minRounds, kruskalEvery int
	perSec                                        float64
}

var (
	msfFull = msfSizes{n: 50_000, deg: 8, k: 1024, q: 16_384, warmup: 10, minRounds: 100, kruskalEvery: 50, perSec: 22}
	msfTiny = msfSizes{n: 2_000, deg: 8, k: 64, q: 256, warmup: 1, minRounds: 4, kruskalEvery: 2, perSec: 20}
)

// maxWeight bounds the random edge weights of social-msf and serve-zipf.
const maxWeight = 1_000_000

// runSocialMSF drives DynamicMSF over a low-diameter power-law graph:
// every round deletes k live edges, half of them current tree edges (full
// min-weight replacement search), answers q uniform BatchConnected pairs,
// and adds the k edges back under fresh weights (cycle-max swap rounds).
func runSocialMSF(cfg config, w io.Writer) *result {
	sz := msfFull
	if cfg.tiny {
		sz = msfTiny
	}
	res := &result{}
	g := gen.SocialGraph(sz.n, sz.deg, cfg.seed)
	pairs := dedupe(g.Edges)
	wr := rng.New(cfg.seed)
	edges := make([]ufotree.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = ufotree.Edge{U: p[0], V: p[1], W: 1 + wr.Int63()%maxWeight}
	}
	rounds := epochRounds(cfg.seconds, sz.perSec, sz.minRounds)
	fmt.Fprintf(w, "# social-msf: DynamicMSF n=%d m=%d k=%d (half tree edges) q=%d; %d epochs, each a fresh set-up from its own load order, %d warm-up and %d measured rounds, Kruskal every %d rounds\n",
		g.N, len(edges), sz.k, sz.q, epochs, sz.warmup, rounds, sz.kruskalEvery)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st := &churnStats{}
	var su setups
	var swapRounds, swaps, promotions int64
	var q0, q1 ufotree.QueryStats // shared-walk counters, summed over epochs
	var arena arenaSnap
	for e := 0; e < epochs; e++ {
		r := rng.New(epochSeed(cfg.seed, e))
		order := shuffled(edges, r)
		var dm ufotree.DynamicMSF
		err := su.build(func() error {
			dm = ufotree.NewDynamicMSF(g.N, ufotree.WithWorkers(workers))
			return bulkLoad(dm, order, sz.k)
		})
		res.attempted += int64(len(order))
		if err != nil {
			res.mismatch("set-up: AddEdges: %v", err)
			return res
		}
		checkKruskal(dm, g.N, order, cfg.corrupt, -1, res)
		um, _ := ufotree.UnderlyingMSF(dm)
		before := ufotree.QueryStats(um.Forest().QueryStats())
		ch := &churn{
			g: dm, api: "DynamicMSF", layer: "msf", n: g.N, edges: order,
			k: sz.k, q: sz.q, qCalls: 1, warmup: sz.warmup, rounds: rounds,
			pick: func(r *rng.SplitMix64, idx []int) { pickHalfTree(r, dm, order, idx) },
			reweight: func(r *rng.SplitMix64, idx []int) {
				for _, j := range idx {
					order[j].W = 1 + r.Int63()%maxWeight
				}
			},
			afterCall: func(del bool) {
				ps := um.PhaseStats()
				if del {
					promotions += ps.Promotions
				} else {
					swapRounds += int64(ps.Rounds)
					swaps += ps.Swaps
				}
			},
			checkRound: func(round int, res *result) {
				if round%sz.kruskalEvery == 0 {
					checkKruskal(dm, g.N, order, cfg.corrupt, round, res)
				}
			},
		}
		ch.run(cfg, res, tr, st, r)
		checkKruskal(dm, g.N, order, cfg.corrupt, -1, res)
		after := ufotree.QueryStats(um.Forest().QueryStats())
		q0, q1 = addQueryStats(q0, before), addQueryStats(q1, after)
		as := um.Forest().ArenaStats()
		arena = arenaSnap{as.Live, as.Slots, as.HotBytes}
	}
	su.rows(res, fmt.Sprintf("NewDynamicMSF + AddEdges of %d edges in batches of %d", len(edges), sz.k))
	churnE2E(res, st)
	if !cfg.trace {
		return res
	}

	churnLayer(w, res, st, "msf")
	add, del := st.addPS, st.delPS
	addBase := fmt.Sprintf("of %.1f ms in %d AddEdges calls", ms(st.facadeAdd), add.Batches)
	for _, ph := range []string{"cycle_max", "swap"} {
		t, _ := phaseTime(add, ph)
		res.addLayer("msf."+ph+"_share", share(t, st.facadeAdd), "ratio", addBase)
	}
	delBase := fmt.Sprintf("of %.1f ms in %d DeleteEdges calls", ms(st.facadeDel), del.Batches)
	for _, ph := range []string{"search", "forest_cut", "forest_link", "nontree"} {
		t, _ := phaseTime(del, ph)
		res.addLayer("msf."+ph+"_share", share(t, st.facadeDel), "ratio", delBase)
	}
	res.addLayer("msf.swap_rounds_per_add_batch", per(float64(swapRounds), float64(add.Batches)), "count",
		fmt.Sprintf("%d cycle-max rounds / %d add batches", swapRounds, add.Batches))
	res.addLayer("msf.swaps_per_add", per(float64(swaps), float64(add.Links)), "count",
		fmt.Sprintf("%d swaps / %d added edges", swaps, add.Links))
	res.addLayer("msf.promotions_per_delete", per(float64(promotions), float64(del.Cuts)), "count",
		fmt.Sprintf("%d promotions / %d deleted edges", promotions, del.Cuts))
	queryEngineRows(res, q1, q0, "batches on the MSF's forest: BatchConnected calls and cycle_max's BatchPathMaxEdge, warm-up included")
	arenaRows(res, arena, "the MSF's forest at the last epoch's end")
	res.absent("one AddEdges or DeleteEdges call runs several engine batches and the engine's PhaseStats keep only the last",
		"ufo.levels_per_batch", "ufo.recluster_share", "ufo.cond_delete_share", "ufo.disconnect_share")
	runtimeRows(res, &st.rt, st.meteredOps(), "the facade calls of the untraced measured rounds")
	if err := tr.report(w, cfg.spans, cfg.workload, cfg.seed); err != nil {
		fmt.Fprintf(w, "# %v\n", err)
	}
	return res
}

// pickHalfTree fills idx with distinct edge indices, the first half
// current tree edges and the rest non-tree edges (fewer tree edges when
// the forest is small).
func pickHalfTree(r *rng.SplitMix64, dm ufotree.DynamicMSF, edges []ufotree.Edge, idx []int) {
	taken := make(map[int]bool, len(idx))
	wantTree := len(idx) / 2
	nTree, nOther := 0, 0
	for tries := 0; nTree+nOther < len(idx); tries++ {
		j := r.Intn(len(edges))
		if taken[j] {
			continue
		}
		isTree := dm.IsTreeEdge(edges[j].U, edges[j].V)
		switch {
		case isTree && (nTree < wantTree || tries > 64*len(idx)):
			idx[nTree+nOther] = j
			nTree++
		case !isTree && (nOther < len(idx)-wantTree || tries > 64*len(idx)):
			idx[nTree+nOther] = j
			nOther++
		default:
			continue
		}
		taken[j] = true
	}
}

// checkKruskal recomputes the minimum spanning forest of the live edge set
// and compares its total weight and edge list with the structure's.
func checkKruskal(dm ufotree.DynamicMSF, n int, edges []ufotree.Edge, corrupt bool, round int, res *result) {
	want, total := kruskal(n, edges)
	got := dm.TreeEdges()
	gotTotal := dm.TotalWeight()
	if corrupt {
		gotTotal++
	}
	if gotTotal != total {
		res.mismatch("round %d: TotalWeight %d, Kruskal %d", round, gotTotal, total)
	}
	if len(got) != len(want) {
		res.mismatch("round %d: %d tree edges, Kruskal %d", round, len(got), len(want))
		return
	}
	for i := range want {
		if normalized(got[i]) != want[i] {
			res.mismatch("round %d: tree edge %d is %v, Kruskal %v", round, i, got[i], want[i])
			return
		}
	}
}

// queryEngineRows reports the shared-walk query engine counters between
// two QueryStats snapshots; what names the batches they count.
func queryEngineRows(res *result, now, then ufotree.QueryStats, what string) {
	b := float64(now.Batches - then.Batches)
	q := float64(now.Queries - then.Queries)
	res.addLayer("ufo.shared_batch_frac", per(float64(now.SharedBatches-then.SharedBatches), b), "ratio",
		fmt.Sprintf("shared-walk batches / %.0f query %s", b, what))
	res.addLayer("ufo.memo_hits_per_query", per(float64(now.SharedMemoHits-then.SharedMemoHits), q), "count",
		fmt.Sprintf("memoized walk hits / %.0f queries", q))
	res.addLayer("ufo.cluster_visits_per_query", per(float64(now.SharedClusterVisits-then.SharedClusterVisits), q), "count",
		fmt.Sprintf("shared-walk cluster hops / %.0f queries", q))
}

// addQueryStats sums two QueryStats snapshots field by field.
func addQueryStats(a, b ufotree.QueryStats) ufotree.QueryStats {
	return ufotree.QueryStats{
		Batches:             a.Batches + b.Batches,
		Queries:             a.Queries + b.Queries,
		IndependentBatches:  a.IndependentBatches + b.IndependentBatches,
		SharedBatches:       a.SharedBatches + b.SharedBatches,
		SharedQueries:       a.SharedQueries + b.SharedQueries,
		SharedEndpoints:     a.SharedEndpoints + b.SharedEndpoints,
		SharedMemoHits:      a.SharedMemoHits + b.SharedMemoHits,
		SharedClusterVisits: a.SharedClusterVisits + b.SharedClusterVisits,
	}
}

// arenaSnap is the part of the UFO arena's ArenaStats the benchmark
// reports.
type arenaSnap struct {
	live, slots int
	hotBytes    int64
}

func arenaRows(res *result, a arenaSnap, what string) {
	res.addLayer("ufo.arena_live_slots", float64(a.live), "count", fmt.Sprintf("cluster slots live, of %d, in %s", a.slots, what))
	res.addLayer("ufo.arena_hot_mb", float64(a.hotBytes)/(1<<20), "MB", "hot-row storage reserved by "+what)
}
