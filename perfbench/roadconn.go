package main

import (
	"fmt"
	"io"
	"math"

	ufotree "repro"
	"repro/internal/gen"
	"repro/internal/rng"
)

// roadSizes are road-conn's input sizes: n vertices of gen.RoadGraph,
// batches of k edges, qCalls BatchConnected calls of q pairs per round,
// perSec measured rounds per second of a run (see epochRounds).
// A call of q uniform pairs over n vertices names about
// n·(1-e^(-2q/n)) distinct endpoints; the query engine takes the shared
// walk only when that is at most q, so q = n/2 keeps every call on the
// independent walk (about 1.26 distinct endpoints per pair), while two
// calls a round keep the query share of the run long.
type roadSizes struct {
	n, k, q, qCalls, warmup, minRounds int
	perSec                             float64
}

var (
	roadFull = roadSizes{n: 100_000, k: 2048, q: 50_000, qCalls: 2, warmup: 3, minRounds: 100, perSec: 7}
	roadTiny = roadSizes{n: 2_500, k: 64, q: 256, qCalls: 2, warmup: 1, minRounds: 4, perSec: 20}
)

// runRoadConn drives DynamicGraph over a high-diameter lattice: every
// round deletes k random edges (HDT replacement search, per-level engine
// cuts and links), answers qCalls BatchConnected calls of q uniform pairs,
// and adds the k edges back.
func runRoadConn(cfg config, w io.Writer) *result {
	sz := roadFull
	if cfg.tiny {
		sz = roadTiny
	}
	res := &result{}
	g := gen.RoadGraph(sz.n, cfg.seed)
	pairs := dedupe(g.Edges)
	edges := make([]ufotree.Edge, len(pairs))
	for i, p := range pairs {
		edges[i] = ufotree.Edge{U: p[0], V: p[1], W: 1}
	}
	rounds := epochRounds(cfg.seconds, sz.perSec, sz.minRounds)
	fmt.Fprintf(w, "# road-conn: DynamicGraph n=%d m=%d k=%d, %dx%d query pairs; %d epochs, each a fresh set-up from its own load order, %d warm-up and %d measured rounds\n",
		g.N, len(edges), sz.k, sz.qCalls, sz.q, epochs, sz.warmup, rounds)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	st := &churnStats{}
	var su setups
	var scanned, promoted int64 // conn's per-level search telemetry, summed
	var sweeps []float64        // search sweeps of each traced delete batch
	var maxLevel, levels int
	probe := newWalkProbe(g.N)
	for e := 0; e < epochs; e++ {
		r := rng.New(epochSeed(cfg.seed, e))
		order := shuffled(edges, r)
		var dg ufotree.DynamicGraph
		err := su.build(func() error {
			dg = ufotree.NewDynamicGraph(g.N, ufotree.WithWorkers(workers))
			return bulkLoad(dg, order, sz.k)
		})
		res.attempted += int64(len(order))
		if err != nil {
			res.mismatch("set-up: AddEdges: %v", err)
			return res
		}
		cc, _ := ufotree.UnderlyingConnectivity(dg)
		sm := newSampler(len(order))
		ch := &churn{
			g: dg, api: "DynamicGraph", layer: "conn", n: g.N, edges: order,
			k: sz.k, q: sz.q, qCalls: sz.qCalls, warmup: sz.warmup, rounds: rounds,
			pick: sm.pick, afterQuery: probe.check,
			afterCall: func(del bool) {
				if !del {
					return
				}
				ps := cc.PhaseStats()
				sweeps = append(sweeps, float64(ps.Rounds))
				for _, l := range ps.PerLevel {
					scanned += l.Scanned
					promoted += l.Promoted
				}
			},
		}
		ch.run(cfg, res, tr, st, r)
		maxLevel, levels = max(maxLevel, cc.MaxLevelUsed()), cc.Levels()
	}
	su.rows(res, fmt.Sprintf("NewDynamicGraph + AddEdges of %d edges in batches of %d", len(edges), sz.k))
	churnE2E(res, st)
	res.diagf("# query walk: %d of %d BatchConnected calls took the shared walk (the engine's own choice, replayed); distinct endpoints per pair >= %.3f (shared at <= 1)",
		probe.shared, probe.calls, probe.minSpread)
	if probe.shared > 0 {
		res.diagf("# WARNING: road-conn's queries are meant to take the independent walk; the shared-walk rows of the traced run are not measured")
	}
	if !cfg.trace {
		return res
	}

	// Per-layer rows: the conn pipeline's share of delete-batch time, its
	// search counters, and the engine and runtime rows.
	churnLayer(w, res, st, "conn")
	del := st.delPS
	base := fmt.Sprintf("of %.1f ms in %d DeleteEdges calls", ms(st.facadeDel), del.Batches)
	for _, ph := range []string{"classify", "forest_cut", "forest_link", "search", "push_down", "promote", "nontree"} {
		t, _ := phaseTime(del, ph)
		res.addLayer("conn."+ph+"_share", share(t, st.facadeDel), "ratio", base)
	}
	nDel := float64(del.Cuts)
	res.addLayer("conn.sweeps_per_delete_batch", per(float64(del.SearchRounds), float64(del.Batches)), "count",
		fmt.Sprintf("%d search sweeps / %d delete batches; per batch p50=%.0f p90=%.0f max=%.0f (varies run to run at >1 worker)",
			del.SearchRounds, del.Batches, quantile(sweeps, 0.5), quantile(sweeps, 0.9), quantile(sweeps, 1)))
	res.addLayer("conn.scanned_per_delete", per(float64(scanned), nDel), "count",
		fmt.Sprintf("%d incidence entries scanned / %.0f deleted edges", scanned, nDel))
	res.addLayer("conn.promoted_per_delete", per(float64(promoted), nDel), "count",
		fmt.Sprintf("%d replacement edges promoted / %.0f deleted edges", promoted, nDel))
	res.addLayer("conn.max_level_used", float64(maxLevel), "count",
		fmt.Sprintf("deepest HDT level holding an edge at an epoch's end, of %d", levels))
	probe.rows(res)
	res.absent("conn keeps its per-level forests private, so their engine PhaseStats and ArenaStats are not exported",
		"ufo.levels_per_batch", "ufo.recluster_share", "ufo.cond_delete_share", "ufo.disconnect_share",
		"ufo.arena_live_slots", "ufo.arena_hot_mb")
	runtimeRows(res, &st.rt, st.meteredOps(), "the facade calls of the untraced measured rounds")
	if err := tr.report(w, cfg.spans, cfg.workload, cfg.seed); err != nil {
		fmt.Fprintf(w, "# %v\n", err)
	}
	return res
}

// sampler draws k distinct uniform indices in [0, m) per call by a
// partial Fisher-Yates shuffle over a permutation it keeps between calls.
type sampler struct{ perm []int }

func newSampler(m int) *sampler {
	s := &sampler{perm: make([]int, m)}
	for i := range s.perm {
		s.perm[i] = i
	}
	return s
}

func (s *sampler) pick(r *rng.SplitMix64, idx []int) {
	m := len(s.perm)
	for i := range idx {
		j := i + r.Intn(m-i)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		idx[i] = s.perm[i]
	}
}

// walkProbe tells which walk the query engine takes for each
// BatchConnected call of a layer that exports no QueryStats (conn keeps its
// forests private). QueryAuto chooses from the pairs alone — how many there
// are and how often their endpoints repeat — never from the forest's
// shape, so the same pairs sent to an edgeless forest in the default mode
// take the same walk there, and that forest's QueryStats count it. The
// probe also records the least distinct-endpoints-per-pair ratio it saw,
// the margin to the engine's threshold.
type walkProbe struct {
	f             ufotree.BatchForest
	qe            ufotree.QueryEngine
	seen          []uint32 // stamp per vertex: named in the current call
	stamp         uint32
	calls, shared int64
	minSpread     float64
}

func newWalkProbe(n int) *walkProbe {
	f := ufotree.New(n, ufotree.WithWorkers(1))
	return &walkProbe{f: f, qe: f.(ufotree.QueryEngine), seen: make([]uint32, n), minSpread: math.Inf(1)}
}

func (p *walkProbe) check(pairs [][2]int) {
	before := p.qe.QueryStats().SharedBatches
	p.f.(ufotree.BatchConnectivityQuerier).BatchConnected(pairs)
	p.shared += p.qe.QueryStats().SharedBatches - before
	p.calls++
	p.stamp++
	distinct := 0
	for _, q := range pairs {
		for _, v := range q {
			if p.seen[v] != p.stamp {
				p.seen[v] = p.stamp
				distinct++
			}
		}
	}
	p.minSpread = min(p.minSpread, float64(distinct)/float64(len(pairs)))
}

// rows reports the query engine's shared-walk rows. The memo and cluster
// counters accrue on shared walks only, so they are exactly 0 when no call
// took one; otherwise conn gives no way to read them.
func (p *walkProbe) rows(res *result) {
	res.addLayer("ufo.shared_batch_frac", per(float64(p.shared), float64(p.calls)), "ratio",
		fmt.Sprintf("%d of %d BatchConnected calls took the shared walk, by the engine's choice replayed on the same pairs; distinct endpoints per pair >= %.3f (shared at <= 1)",
			p.shared, p.calls, p.minSpread))
	if p.shared > 0 {
		res.absent(fmt.Sprintf("%d calls took the shared walk and conn exports no QueryStats", p.shared),
			"ufo.memo_hits_per_query", "ufo.cluster_visits_per_query")
		return
	}
	for _, name := range []string{"ufo.memo_hits_per_query", "ufo.cluster_visits_per_query"} {
		res.addLayer(name, 0, "count", fmt.Sprintf("exactly 0: counted on shared walks only, and none of %d calls took one", p.calls))
	}
}
