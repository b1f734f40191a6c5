package main

import (
	"fmt"
	"io"
	"time"

	ufotree "repro"
	"repro/internal/rng"
)

// graphAPI is the part of DynamicGraph and DynamicMSF the churn loop
// drives.
type graphAPI interface {
	AddEdges(edges []ufotree.Edge) error
	DeleteEdges(edges []ufotree.Edge) error
	BatchConnected(pairs [][2]int) []bool
	ComponentCount() int
	PhaseStats() ufotree.PhaseStats
}

// bulkLoad adds edges to g in batches of k.
func bulkLoad(g graphAPI, edges []ufotree.Edge, k int) error {
	for off := 0; off < len(edges); off += k {
		if err := g.AddEdges(edges[off:min(off+k, len(edges))]); err != nil {
			return err
		}
	}
	return nil
}

// shuffled returns a copy of edges in an order drawn from r: an epoch's
// load order.
func shuffled(edges []ufotree.Edge, r *rng.SplitMix64) []ufotree.Edge {
	out := append([]ufotree.Edge(nil), edges...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// churn is the shared round loop of road-conn and social-msf: every round
// deletes k live edges, answers qCalls BatchConnected calls of q uniform
// pairs each, and adds the same k edges back (with fresh weights where the
// workload says so). Between rounds the live edge set is always the whole
// of edges.
type churn struct {
	g         graphAPI
	api       string // facade type name, for span names
	layer     string // layer the facade drives, for span names
	n         int
	edges     []ufotree.Edge // live edge set between rounds, current weights
	k         int
	q, qCalls int // pairs per BatchConnected call, calls per round
	warmup    int // untimed rounds before measuring
	rounds    int // measured rounds

	// pick fills idx with the indices of this round's k edges; reweight,
	// when set, gives them fresh weights before they are added back.
	pick     func(r *rng.SplitMix64, idx []int)
	reweight func(r *rng.SplitMix64, idx []int)
	// afterCall runs after every traced update call, to read the layer's
	// own telemetry; del tells deletes from adds.
	afterCall func(del bool)
	// afterQuery, when set, sees the pairs of every BatchConnected call,
	// outside the timed sections.
	afterQuery func(pairs [][2]int)
	// checkRound runs after each round, outside the timed sections, for
	// workload-specific oracles.
	checkRound func(round int, res *result)
}

// block is one half of an epoch's measured rounds: the per-call latencies
// (ms) of its untraced rounds.
type block struct {
	del, add, query []float64
}

// churnStats is what the loop measured over every epoch: per-call
// latencies of the untraced measured rounds by block, in time order, and
// of the traced ones, and the facade PhaseStats of the traced ones.
type churnStats struct {
	blocks               []*block
	tDel, tQuery, tAdd   []float64
	delPS, addPS         ufotree.PhaseStats
	k, q, qCalls         int // edges per update batch, pairs per query call, calls per round
	rounds, tracedRounds int
	facadeDel, facadeAdd time.Duration // traced facade time
	facadeQuery          time.Duration
	// rt meters the facade calls of the untraced measured rounds of a
	// traced run: no tracer, oracle or input bookkeeping inside it.
	rt            runtimeMeter
	meteredRounds int
}

// meteredOps is the number of edges updated and pairs queried in the
// rounds rt metered.
func (st *churnStats) meteredOps() int64 {
	return int64(st.meteredRounds * (2*st.k + st.q*st.qCalls))
}

// epochRounds is how many rounds an epoch measures: the run's seconds at
// the workload's sizing rate (measured rounds per second of a run on the
// sizing host), at least minRounds in all, split over the epochs. It is a
// fixed count, not a deadline: churn keeps reshaping the structure, so the
// cost of a round drifts along an epoch, and under a deadline a faster host
// would reach further along that drift than a slower one.
func epochRounds(seconds, perSec float64, minRounds int) int {
	return max(minRounds, int(seconds*perSec)) / epochs
}

// run churns the structure for its warm-up rounds and then its measured
// rounds, adding to st. The first half of the measured rounds fall in one
// block, the rest in the next.
func (c *churn) run(cfg config, res *result, tr *tracer, st *churnStats, r *rng.SplitMix64) {
	m := len(c.edges)
	idx := make([]int, c.k)
	dead := make([]bool, m)
	batch := make([]ufotree.Edge, c.k)
	pairs := make([][2]int, c.q*c.qCalls)
	ans := make([][]bool, c.qCalls)
	qt := make([]float64, c.qCalls) // ms inside each BatchConnected call
	uf := newUnionFind(c.n)
	fullComps := c.g.ComponentCount()
	st.k, st.q, st.qCalls = c.k, c.q, c.qCalls

	halves := [2]*block{{}, {}}
	st.blocks = append(st.blocks, halves[:]...)
	for round := 0; round < c.warmup+c.rounds; round++ {
		measured := round >= c.warmup
		blk := halves[0]
		if round-c.warmup >= c.rounds/2 {
			blk = halves[1]
		}
		traced := tr != nil && measured && round%2 == 0
		metered := tr != nil && measured && !traced

		c.pick(r, idx)
		for i, j := range idx {
			batch[i] = c.edges[j]
			dead[j] = true
		}
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(c.n), r.Intn(c.n)}
		}

		if metered {
			st.rt.start()
		}
		t0 := time.Now()
		err := c.g.DeleteEdges(batch)
		t1 := time.Now()
		if err != nil {
			res.mismatch("round %d: DeleteEdges: %v", round, err)
		}
		var ps ufotree.PhaseStats
		if traced {
			ps = c.g.PhaseStats()
			tr.call(c.api+".DeleteEdges", t0, t1, c.layer, &ps)
			st.delPS.Accumulate(ps)
			st.facadeDel += t1.Sub(t0)
			c.afterCall(true)
		}
		for i := range ans {
			ta := time.Now()
			ans[i] = c.g.BatchConnected(pairs[i*c.q : (i+1)*c.q])
			tb := time.Now()
			qt[i] = ms(tb.Sub(ta))
			if traced {
				tr.call(c.api+".BatchConnected", ta, tb, "", nil)
				st.facadeQuery += tb.Sub(ta)
			}
		}
		comps := c.g.ComponentCount()

		if c.reweight != nil {
			c.reweight(r, idx)
			for i, j := range idx {
				batch[i] = c.edges[j]
			}
		}
		t4 := time.Now()
		err = c.g.AddEdges(batch)
		t5 := time.Now()
		if metered {
			st.rt.stop()
			st.meteredRounds++
		}
		if err != nil {
			res.mismatch("round %d: AddEdges: %v", round, err)
		}
		if traced {
			ps = c.g.PhaseStats()
			tr.call(c.api+".AddEdges", t4, t5, c.layer, &ps)
			st.addPS.Accumulate(ps)
			st.facadeAdd += t5.Sub(t4)
			c.afterCall(false)
		}
		res.attempted += int64(2*c.k + len(pairs))

		if measured {
			d, a := ms(t1.Sub(t0)), ms(t5.Sub(t4))
			if traced {
				st.tDel, st.tAdd, st.tQuery = append(st.tDel, d), append(st.tAdd, a), append(st.tQuery, qt...)
				st.tracedRounds++
			} else {
				blk.del, blk.add, blk.query = append(blk.del, d), append(blk.add, a), append(blk.query, qt...)
			}
			st.rounds++
		}
		if c.afterQuery != nil {
			for i := range ans {
				c.afterQuery(pairs[i*c.q : (i+1)*c.q])
			}
		}

		// Oracle, untimed: union-find over the post-delete live set must
		// match the component count and every connectivity answer.
		uf.reset()
		for j, e := range c.edges {
			if !dead[j] {
				uf.union(e.U, e.V)
			}
		}
		if cfg.corrupt {
			ans[0][0] = !ans[0][0]
		}
		if comps != uf.comps {
			res.mismatch("round %d: ComponentCount %d after delete, oracle %d", round, comps, uf.comps)
		}
		for i, p := range pairs {
			if got := ans[i/c.q][i%c.q]; got != (uf.find(p[0]) == uf.find(p[1])) {
				res.mismatch("round %d: BatchConnected(%d,%d) = %v, oracle disagrees", round, p[0], p[1], got)
			}
		}
		if got := c.g.ComponentCount(); got != fullComps {
			res.mismatch("round %d: ComponentCount %d after re-add, want %d", round, got, fullComps)
		}
		for _, j := range idx {
			dead[j] = false
		}
		if c.checkRound != nil {
			c.checkRound(round, res)
		}
	}
}

// churnE2E adds the end-to-end rows shared by road-conn and social-msf:
// update throughput and per-call latencies of the untraced measured
// rounds. Each row is the median over the blocks of that block's own
// figure, so a stretch of a run the host slowed down moves a row only if
// it spans half the blocks. One diagnostic line per block shows them.
func churnE2E(res *result, st *churnStats) {
	var blocks []*block // those with rounds in them
	var thr []float64
	for i, b := range st.blocks {
		t := per(float64(2*st.k*len(b.del)), (sum(b.del)+sum(b.add))/1e3)
		res.diagf("# epoch %d block %d: %d rounds, %.5g update ops/s, delete/add/query p50 %.4g/%.4g/%.4g ms",
			i/2, i%2, len(b.del), t, median(b.del), median(b.add), median(b.query))
		if len(b.del) > 0 {
			blocks, thr = append(blocks, b), append(thr, t)
		}
	}
	del, add, query := st.untraced()
	res.addE2E("throughput_ops_per_s", median(thr), "1/s",
		fmt.Sprintf("edges added+deleted per second inside AddEdges/DeleteEdges, median of %d blocks, %d rounds", len(blocks), len(del)))
	blockLatencyRows(res, "delete", blocks, 0.5, del, func(b *block) []float64 { return b.del })
	blockLatencyRows(res, "add", blocks, 0.5, add, func(b *block) []float64 { return b.add })
	blockLatencyRows(res, "query", blocks, 0.5, query, func(b *block) []float64 { return b.query })
	res.diagf("# query_ops_per_s = %.6g (pairs answered per second inside BatchConnected, %d calls of %d pairs)",
		per(float64(st.q*len(query)), sum(query)/1e3), len(query), st.q)
}

// blockLatencyRows adds the p50/p90 pair of one kind of call: the
// across-quantile (0.5: the median) over the blocks of each block's own
// quantile. The note gives the pooled sample count and tail.
func blockLatencyRows(res *result, prefix string, blocks []*block, across float64, pooled []float64, get func(*block) []float64) {
	p50, p90 := make([]float64, len(blocks)), make([]float64, len(blocks))
	for i, b := range blocks {
		p50[i], p90[i] = quantile(get(b), 0.5), quantile(get(b), 0.9)
	}
	note := fmt.Sprintf("p%g over %d blocks of each block's quantile, n=%d calls in all, pooled %s",
		100*across, len(blocks), len(pooled), tail(pooled))
	res.addE2E(prefix+"_p50_ms", quantile(p50, across), "ms", note)
	res.addE2E(prefix+"_p90_ms", quantile(p90, across), "ms", note)
}

// untraced pools the latencies of every untraced measured round.
func (st *churnStats) untraced() (del, add, query []float64) {
	for _, b := range st.blocks {
		del, add, query = append(del, b.del...), append(add, b.add...), append(query, b.query...)
	}
	return del, add, query
}

// churnLayer adds the facade and engine rows shared by road-conn and
// social-msf, plus the tracing overhead and the phase-accounting check.
func churnLayer(w io.Writer, res *result, st *churnStats, layer string) {
	nDel, nAdd := float64(st.delPS.Batches), float64(st.addPS.Batches)
	res.addLayer("ufotree.self_ms_per_delete_batch", per(ms(st.facadeDel-st.delPS.Total), nDel), "ms",
		fmt.Sprintf("facade DeleteEdges time minus %s PhaseStats.Total, %d batches", layer, st.delPS.Batches))
	res.addLayer("ufotree.self_ms_per_add_batch", per(ms(st.facadeAdd-st.addPS.Total), nAdd), "ms",
		fmt.Sprintf("facade AddEdges time minus %s PhaseStats.Total, %d batches", layer, st.addPS.Batches))

	cutT, cutN := phaseTime(st.delPS, "forest_cut")
	linkDT, linkDN := phaseTime(st.delPS, "forest_link")
	linkAT, linkAN := phaseTime(st.addPS, "forest_link")
	res.addLayer("ufo.us_per_cut", per(float64(cutT)/1e3, float64(cutN)), "us",
		fmt.Sprintf("%s forest_cut time per edge cut in the engine, %d cuts", layer, cutN))
	res.addLayer("ufo.us_per_link", per(float64(linkDT+linkAT)/1e3, float64(linkDN+linkAN)), "us",
		fmt.Sprintf("%s forest_link time per edge linked in the engine, %d links", layer, linkDN+linkAN))
	facade := st.facadeDel + st.facadeAdd + st.facadeQuery
	res.addLayer("ufo.update_busy_share", share(cutT+linkDT+linkAT, facade), "ratio",
		fmt.Sprintf("%s forest_cut+forest_link time / %.1f ms inside facade calls", layer, ms(facade)))
	res.addLayer("ufo.query_busy_share", share(st.facadeQuery, facade), "ratio",
		fmt.Sprintf("BatchConnected time / %.1f ms inside facade calls", ms(facade)))
	qn := float64(st.q * len(st.tQuery))
	res.addLayer("ufo.queries_per_ms.connected", per(qn, ms(st.facadeQuery)), "1/ms",
		fmt.Sprintf("%.0f pairs / %.1f ms inside %d BatchConnected calls", qn, ms(st.facadeQuery), len(st.tQuery)))

	// Accounting: facade self time plus the layer's named phases must
	// cover at least 95% of the time inside the facade update calls.
	for _, a := range []struct {
		kind   string
		facade time.Duration
		ps     ufotree.PhaseStats
	}{{"delete", st.facadeDel, st.delPS}, {"add", st.facadeAdd, st.addPS}} {
		cov := share(a.facade-a.ps.Total+phaseSum(a.ps), a.facade)
		flag := "ok"
		if cov < 0.95 {
			flag = "BELOW 95%"
		}
		fmt.Fprintf(w, "# accounting %s: facade self + %s phases = %.4f of %.1f ms in facade calls (%s)\n",
			a.kind, layer, cov, ms(a.facade), flag)
	}
	del, add, query := st.untraced()
	for _, o := range []struct {
		name             string
		traced, untraced []float64
	}{{"delete_p50_ms", st.tDel, del}, {"add_p50_ms", st.tAdd, add}, {"query_p50_ms", st.tQuery, query}} {
		fmt.Fprintf(w, "# tracing overhead %s: traced %.4g vs untraced %.4g (%+.2f%%, %d vs %d calls)\n",
			o.name, median(o.traced), median(o.untraced), 100*(per(median(o.traced), median(o.untraced))-1), len(o.traced), len(o.untraced))
	}
}
