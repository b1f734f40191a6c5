package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	ufotree "repro"
	"repro/internal/gen"
	"repro/internal/rng"
)

// serveSizes are serve-zipf's knobs: a UFO forest over gen.PrefAttach(n),
// core vertices that are never rewired (planted invalid ops use them), the
// two fixed offered rates, and the zipf exponent of path-query endpoints.
type serveSizes struct {
	n, core   int
	low, high float64 // ops/s
	zipfS     float64
	warm      float64 // untimed warm-up seconds at the high rate
	loadBatch int     // BatchLink size of the bulk load
	ladder    []float64
	rung      float64 // seconds per ladder rate
}

var (
	serveFull = serveSizes{n: 200_000, core: 1024, low: 10_000, high: 25_000, zipfS: 1.5, warm: 0.5, loadBatch: 16_384,
		ladder: []float64{40_000, 60_000, 90_000, 135_000, 200_000, 300_000}, rung: 1}
	serveTiny = serveSizes{n: 4_000, core: 64, low: 2_000, high: 5_000, zipfS: 1.5, warm: 0.1, loadBatch: 1024,
		ladder: []float64{5_000, 10_000}, rung: 0.1}
)

// Limits, bounds and measurement granularity of a rate step.
const (
	limitMs       = 25.0 // p90 op latency a sustainable step must meet
	lateLimitMs   = 5.0  // generator p90 lateness beyond which a step is harness-bound
	maxInFlight   = 8192 // path-query goroutines outstanding at once
	sampleQuery   = 4096 // PathSum pairs the final oracle checks
	blockSec      = 0.5  // target length of a fixed-rate step's latency blocks
	blockQuantile = 0.25 // quantile over those blocks the latency rows report
	rateBinSec    = 0.25 // target length of an unthrottled step's throughput bins
)

// opKind is one serve-zipf operation type. The planted kinds must come
// back with exactly one typed error.
type opKind uint8

const (
	opPathSum opKind = iota
	opPathMax
	opConnected
	opCut
	opLink
	opDupLink   // link of a present core edge: ErrDuplicateEdge
	opAbsentCut // cut of two non-adjacent core vertices: ErrAbsentCut
	opCycleLink // link of two non-adjacent core vertices: ErrWouldCycle
)

func (k opKind) want() error {
	switch k {
	case opDupLink:
		return ufotree.ErrDuplicateEdge
	case opAbsentCut:
		return ufotree.ErrAbsentCut
	case opCycleLink:
		return ufotree.ErrWouldCycle
	}
	return nil
}

// op is one generated operation of a step; offsets are from the step's
// start: when it was due, submitted, and answered.
type op struct {
	kind           opKind
	due, sub, done time.Duration
	ch             <-chan ufotree.OpResult
	u, v           int
	w              int64
}

// treeCopy is the generator's exact copy of the forest: a spanning tree
// where every vertex's parent has a smaller label. Rewires keep that
// invariant (a vertex re-attaches below a smaller vertex), so a rewire's
// link is valid in any order the Batcher may commit it in, and the core
// [0, core) — closed under parents — is never split, which makes the
// planted ops' errors independent of how windows fall.
type treeCopy struct {
	parent []int32
	weight []int64 // weight of the edge to the parent
	mark   []uint32
	stamp  uint32
}

// pathSum walks both endpoints up to their lowest common ancestor.
func (t *treeCopy) pathSum(u, v int) int64 {
	t.stamp++
	for x := u; x >= 0; x = int(t.parent[x]) {
		t.mark[x] = t.stamp
	}
	var s int64
	lca := v
	for ; t.mark[lca] != t.stamp; lca = int(t.parent[lca]) {
		s += t.weight[lca]
	}
	for x := u; x != lca; x = int(t.parent[x]) {
		s += t.weight[x]
	}
	return s
}

func (t *treeCopy) adjacent(u, v int) bool {
	return int(t.parent[u]) == v || int(t.parent[v]) == u
}

// zipf samples vertices with probability proportional to rank^-s, ranks
// assigned by a seeded permutation.
type zipf struct {
	cdf  []float64
	vert []int
}

func newZipf(n int, s float64, r *rng.SplitMix64) *zipf {
	z := &zipf{cdf: make([]float64, n), vert: r.Perm(n)}
	acc := 0.0
	for i := range z.cdf {
		acc += math.Pow(float64(i+1), -s)
		z.cdf[i] = acc
	}
	return z
}

func (z *zipf) sample(r *rng.SplitMix64) int {
	x := r.Float64() * z.cdf[len(z.cdf)-1]
	return z.vert[sort.SearchFloat64s(z.cdf, x)]
}

// server holds serve-zipf's state across its rate steps.
type server struct {
	cfg  config
	sz   serveSizes
	f    ufotree.BatchForest
	tree *treeCopy
	r    *rng.SplitMix64
	z    *zipf
	res  *result
	pool []op // the current step's unused op records
}

// newOp returns o in a record from the step's preallocated pool, or from
// the heap once the pool is used up (unthrottled steps have none), so the
// generator of a fixed-rate step allocates nothing per op.
func (s *server) newOp(o op) *op {
	var p *op
	if len(s.pool) > 0 {
		p, s.pool = &s.pool[0], s.pool[1:]
	} else {
		p = new(op)
	}
	*p = o
	return p
}

// stepPlan is one rate step of an epoch: its offered rate (0 for
// unthrottled), its share of the epoch's seconds, and whether the Batcher
// runs over the traced forest.
type stepPlan struct {
	name       string
	rate, frac float64
	traced     bool
}

// stepResult is one rate step's measurements.
type stepResult struct {
	name  string
	rate  float64       // offered ops/s; 0 = unthrottled
	wall  time.Duration // planned length; ops are due within it
	late  []float64     // generator lateness, ms (generator goroutine only)
	rt    runtimeMeter
	stats ufotree.BatcherStats
	calls engineCalls
	q0    ufotree.QueryStats

	mu            sync.Mutex // guards the rest against the recording goroutines
	ops, answered int64      // ops completed; of them, answered within wall
	backlog       int64      // ops answered more than limitMs after wall
	all, link     []float64  // latency from due, ms
	cut, query    []float64
	failed        int64
	mismatches    []string

	// bins counts an unthrottled step's ops by when they were answered,
	// in bins of about rateBinSec of its wall time.
	bins []int64

	// Filled once every op of the step is in: a fixed-rate step's rewire
	// cut, rewire link and query latencies split by due time into blocks
	// of about blockSec (as del, add, query), and an unthrottled step's
	// answered ops per second in each of its bins.
	blocks []*block
	rates  []float64
}

// backlogFrac is the share of the step's ops still unanswered limitMs
// after its end: ops that queued up rather than met the latency limit.
func (st *stepResult) backlogFrac() float64 { return per(float64(st.backlog), float64(st.ops)) }

// runServeZipf drives a Batcher with default knobs over a UFO forest of a
// preferential-attachment tree, from one open-loop generator at fixed
// rates, then unthrottled to find the saturated throughput. An untraced
// run repeats that over the epochs, each on a freshly built forest
// from its own load order, and pools the samples; a traced run has one
// epoch.
func runServeZipf(cfg config, w io.Writer) *result {
	sz := serveFull
	if cfg.tiny {
		sz = serveTiny
	}
	res := &result{}
	t := gen.WithRandomWeights(gen.PrefAttach(sz.n, cfg.seed), maxWeight, cfg.seed^0x51)
	parent, weight := make([]int32, sz.n), make([]int64, sz.n)
	parent[0] = -1
	edges := make([]ufotree.Edge, len(t.Edges))
	for i, e := range t.Edges {
		edges[i] = ufotree.Edge{U: e.U, V: e.V, W: e.W}
		parent[e.V], weight[e.V] = int32(e.U), e.W // PrefAttach: e.U < e.V
	}
	z := newZipf(sz.n, sz.zipfS, rng.New(cfg.seed^0x5a))
	runs := epochs
	if cfg.trace {
		runs = 1
	}
	sec := cfg.seconds / float64(runs)
	fmt.Fprintf(w, "# serve-zipf: Batcher(batch=%d, maxWait=%v) over New(%d) PrefAttach tree, core=%d, rates %.0f/%.0f ops/s, zipf s=%.2f, %d epochs\n",
		1024, 2*time.Millisecond, sz.n, sz.core, sz.low, sz.high, sz.zipfS, runs)
	fmt.Fprintf(w, "# mix: 40%% PathSum + 10%% PathMax (zipf endpoints), 20%% Connected (uniform), 25%% rewire cut+link, 5%% planted invalid\n")

	var su setups
	var tr *tracer
	var wf *tracedForest
	steps := map[string]*stepResult{}
	var f ufotree.BatchForest
	for e := 0; e < runs; e++ {
		r := rng.New(epochSeed(cfg.seed, e))
		order := shuffled(edges, r)
		f = nil
		su.build(func() error {
			f = ufotree.New(sz.n, ufotree.WithWorkers(workers))
			for off := 0; off < len(order); off += sz.loadBatch {
				f.BatchLink(order[off:min(off+sz.loadBatch, len(order))])
			}
			return nil
		})
		res.attempted += int64(len(order))
		tree := &treeCopy{parent: append([]int32(nil), parent...), weight: append([]int64(nil), weight...), mark: make([]uint32, sz.n)}
		s := &server{cfg: cfg, sz: sz, f: f, tree: tree, r: r, z: z, res: res}
		s.step("warm-up", sz.high, sz.warm, nil)
		plan := []stepPlan{{"low", sz.low, 0.1, false}, {"high", sz.high, 0.5, false}, {"saturated", 0, 0.4, false}}
		if cfg.trace {
			tr = newTracer()
			wf = newTracedForest(f, tr)
			plan = []stepPlan{{"low", sz.low, 0.3, true}, {"high-untraced", sz.high, 0.35, false}, {"high", sz.high, 0.35, true}}
		}
		for _, p := range plan {
			var tw *tracedForest
			if p.traced {
				tw = wf
			}
			st := s.step(p.name, p.rate, p.frac*sec, tw)
			if steps[p.name] == nil {
				steps[p.name] = st
			} else {
				steps[p.name].merge(st)
			}
		}
		if !cfg.trace && e == runs-1 {
			res.diagf("%s", s.maxRate())
		}
		s.finalCheck()
	}
	for _, name := range []string{"low", "high-untraced", "high", "saturated"} {
		if st := steps[name]; st != nil {
			printStep(w, st)
		}
	}
	low, high := steps["low"], steps["high"]
	if !cfg.trace {
		sat := steps["saturated"]
		su.rows(res, fmt.Sprintf("New + BatchLink of %d edges in batches of %d", len(edges), sz.loadBatch))
		for i, b := range high.blocks {
			res.diagf("# high block %d: cut/link/query p50 %.4g/%.4g/%.4g ms, p90 %.4g/%.4g/%.4g ms (n=%d/%d/%d)", i,
				median(b.del), median(b.add), median(b.query), quantile(b.del, 0.9), quantile(b.add, 0.9), quantile(b.query, 0.9),
				len(b.del), len(b.add), len(b.query))
		}
		// Contention from other tenants only ever slows a block: in a quiet
		// stretch the blocks' p90s agree within a few percent, in a busy
		// one they double. The lower quartile over the blocks keeps the
		// rows on the quiet blocks unless a stretch covers most of the run.
		blockLatencyRows(res, "delete", high.blocks, blockQuantile, high.cut, func(b *block) []float64 { return b.del })
		blockLatencyRows(res, "add", high.blocks, blockQuantile, high.link, func(b *block) []float64 { return b.add })
		blockLatencyRows(res, "query", high.blocks, blockQuantile, high.query, func(b *block) []float64 { return b.query })
		res.addE2E("throughput_ops_per_s", median(sat.rates), "1/s",
			fmt.Sprintf("ops answered per second with the generator unthrottled, median over %d bins of about %gs, per bin %.0f (%d ops in %.1fs in all)",
				len(sat.rates), rateBinSec, sat.rates, sat.answered, sat.wall.Seconds()))
		res.diagf("# op_p50_ms.low=%.4g op_p90_ms.low=%.4g op_p50_ms.high=%.4g op_p90_ms.high=%.4g (all ops, from due)",
			quantile(low.all, 0.5), quantile(low.all, 0.9), quantile(high.all, 0.5), quantile(high.all, 0.9))
		return res
	}

	base := steps["high-untraced"]
	for _, p := range []float64{0.5, 0.9} {
		fmt.Fprintf(w, "# tracing overhead op_p%.0f_ms.high: traced %.4g vs untraced %.4g (%+.2f%%)\n", 100*p,
			quantile(high.all, p), quantile(base.all, p), 100*(per(quantile(high.all, p), quantile(base.all, p))-1))
	}
	if high.stats.Queries.Batches == 0 {
		res.mismatch("traced step: Batcher Stats().Queries.Batches = 0: the wrapper lost the QueryEngine path")
	}
	for _, st := range []*stepResult{low, high} {
		serveRows(res, st)
	}
	engineRows(res, high)
	queryEngineRows(res, high.stats.Queries, high.q0, "batches the Batcher sent in the traced high step")
	uf, _ := ufotree.UnderlyingUFO(f)
	as := uf.ArenaStats()
	arenaRows(res, arenaSnap{as.Live, as.Slots, as.HotBytes}, "the forest at the run's end")
	runtimeRows(res, &base.rt, base.ops, "the untraced high step (Batcher and engine, plus the one goroutine each path query rides)")
	if err := tr.report(w, cfg.spans, cfg.workload, cfg.seed); err != nil {
		fmt.Fprintf(w, "# %v\n", err)
	}
	return res
}

// step runs one rate step on a fresh Batcher over the forest (wrapped by
// wf when tracing): rate ops/s for seconds (rate 0: unthrottled), then
// waits for every op and closes the Batcher. Outcomes are accounted as
// they arrive, so a step keeps latency samples, not its ops.
func (s *server) step(name string, rate, seconds float64, wf *tracedForest) *stepResult {
	dur := time.Duration(seconds * float64(time.Second))
	st := &stepResult{name: name, rate: rate, wall: dur}
	var bf ufotree.BatchForest = s.f
	if wf != nil {
		bf = wf
		wf.take()
	}
	if qe, ok := s.f.(ufotree.QueryEngine); ok {
		st.q0 = qe.QueryStats()
	}
	total := math.MaxInt
	var recs []op
	if rate > 0 {
		// A fixed-rate step knows its op count (plus at most one rewire
		// link past it), so its records and samples are allocated here,
		// outside the metered interval.
		total = int(rate * seconds)
		recs = make([]op, total+1)
		s.pool = recs
		for _, xs := range []*[]float64{&st.late, &st.all, &st.link, &st.cut, &st.query} {
			*xs = make([]float64, 0, total+1)
		}
	} else {
		st.bins = make([]int64, max(1, int(seconds/rateBinSec+0.5)))
	}
	// The waiter collects async results in submission order; its buffer
	// matches the path-query bound, so the generator stalls (and reports
	// lateness) rather than letting either backlog grow without bound.
	waitq := make(chan *op, maxInFlight)
	sem := make(chan struct{}, maxInFlight)
	st.rt.start()
	b := ufotree.NewBatcher(bf)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range waitq {
			r := <-p.ch
			p.done = p.sub + (r.Timing.Respond - r.Timing.Enqueue)
			st.record(p, r.Err)
		}
	}()
	start := time.Now()
	var pendingLink *op // second half of a rewire, emitted at the next slot
	// A step ends after its last op, or once its time is up when
	// unthrottled — but never between the two halves of a rewire.
	for i := 0; i < total || pendingLink != nil; i++ {
		var due time.Duration
		if rate > 0 {
			due = time.Duration(float64(i) / rate * float64(time.Second))
			if now := time.Since(start); now < due {
				time.Sleep(due - now)
			}
		} else if pendingLink == nil && time.Since(start) >= dur {
			break
		}
		p := pendingLink
		if p != nil {
			pendingLink = nil
		} else {
			p = s.next(&pendingLink)
		}
		p.sub = time.Since(start)
		p.due = due
		if rate == 0 {
			p.due = p.sub
		}
		st.late = append(st.late, ms(p.sub-p.due))
		var err error
		switch p.kind {
		case opPathSum, opPathMax:
			sem <- struct{}{}
			wg.Add(1)
			go func(p *op) {
				defer wg.Done()
				var err error
				if p.kind == opPathSum {
					_, _, err = b.PathSum(p.u, p.v)
				} else {
					_, _, err = b.PathMax(p.u, p.v)
				}
				p.done = time.Since(start)
				st.record(p, err)
				<-sem
			}(p)
			continue
		case opConnected:
			p.ch, err = b.ConnectedAsync(p.u, p.v)
		case opCut, opAbsentCut:
			p.ch, err = b.CutAsync(p.u, p.v)
		case opLink, opDupLink, opCycleLink:
			p.ch, err = b.LinkAsync(p.u, p.v, p.w)
		}
		if err != nil {
			p.done = time.Since(start)
			st.record(p, err)
			continue
		}
		waitq <- p
	}
	close(waitq)
	wg.Wait()
	b.Close()
	st.stats = b.Stats()
	st.rt.stop()
	if rate > 0 {
		st.blocks = splitBlocks(recs[:len(recs)-len(s.pool)], dur)
	} else {
		for _, c := range st.bins {
			st.rates = append(st.rates, float64(c)/(dur.Seconds()/float64(len(st.bins))))
		}
	}
	s.pool = nil
	if wf != nil {
		st.calls = wf.take()
	}
	s.res.attempted += st.ops
	s.res.failed += st.failed
	s.res.mismatches = append(s.res.mismatches, st.mismatches...)
	return st
}

// next draws one operation (weights per 875 draws: 400 PathSum, 100
// PathMax, 200 Connected, 125 rewires of two ops, 50 planted), updating
// the tree copy for rewires. A rewire returns its cut and leaves its link
// in *pending for the next slot, so nothing from the generator goes
// between them.
func (s *server) next(pending **op) *op {
	r, t, sz := s.r, s.tree, s.sz
	x := r.Intn(875)
	switch {
	case x < 400:
		return s.newOp(op{kind: opPathSum, u: s.z.sample(r), v: s.z.sample(r)})
	case x < 500:
		return s.newOp(op{kind: opPathMax, u: s.z.sample(r), v: s.z.sample(r)})
	case x < 700:
		return s.newOp(op{kind: opConnected, u: r.Intn(sz.n), v: r.Intn(sz.n)})
	case x < 825:
		v := sz.core + r.Intn(sz.n-sz.core)
		old := int(t.parent[v])
		np := r.Intn(v)
		for np == old {
			np = r.Intn(v)
		}
		w := int64(1 + r.Intn(maxWeight))
		t.parent[v], t.weight[v] = int32(np), w
		*pending = s.newOp(op{kind: opLink, u: v, v: np, w: w})
		return s.newOp(op{kind: opCut, u: v, v: old})
	}
	u, v := r.Intn(sz.core), r.Intn(sz.core)
	for u == v || t.adjacent(u, v) {
		u, v = r.Intn(sz.core), r.Intn(sz.core)
	}
	switch r.Intn(3) {
	case 0:
		if u == 0 {
			u = v
		}
		return s.newOp(op{kind: opDupLink, u: u, v: int(t.parent[u]), w: 1})
	case 1:
		return s.newOp(op{kind: opAbsentCut, u: u, v: v})
	}
	return s.newOp(op{kind: opCycleLink, u: u, v: v, w: 1})
}

// record checks one completed op's outcome and adds its latency sample.
// Called from the waiter and the path-query goroutines.
func (st *stepResult) record(o *op, err error) {
	lat := ms(o.done - o.due)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ops++
	want := o.kind.want()
	switch {
	case want == nil && err != nil:
		st.fail(fmt.Sprintf("%s: op %d (%d,%d): unexpected error %v", st.name, o.kind, o.u, o.v, err))
	case want != nil && !errors.Is(err, want):
		st.fail(fmt.Sprintf("%s: planted op %d (%d,%d): got %v, want %v", st.name, o.kind, o.u, o.v, err, want))
	}
	st.all = append(st.all, lat)
	switch o.kind {
	case opLink:
		st.link = append(st.link, lat)
	case opCut:
		st.cut = append(st.cut, lat)
	case opPathSum, opPathMax, opConnected:
		st.query = append(st.query, lat)
	}
	if o.done <= st.wall {
		st.answered++
		if n := int64(len(st.bins)); n > 0 {
			st.bins[min(n-1, int64(o.done)*n/int64(st.wall))]++
		}
	}
	if o.done > st.wall+time.Duration(limitMs*float64(time.Millisecond)) {
		st.backlog++
	}
}

func (st *stepResult) fail(msg string) {
	st.failed++
	if len(st.mismatches) < 10 {
		st.mismatches = append(st.mismatches, msg)
	}
}

// merge pools o, the same step of a later epoch, into st. The Batcher and
// wrapper telemetry stay st's own: only a traced run reads them, and it
// has one epoch.
func (st *stepResult) merge(o *stepResult) {
	st.wall += o.wall
	st.late = append(st.late, o.late...)
	st.rt.merge(&o.rt)
	st.ops += o.ops
	st.answered += o.answered
	st.backlog += o.backlog
	st.all = append(st.all, o.all...)
	st.link = append(st.link, o.link...)
	st.cut = append(st.cut, o.cut...)
	st.query = append(st.query, o.query...)
	st.blocks = append(st.blocks, o.blocks...)
	st.rates = append(st.rates, o.rates...)
}

// splitBlocks splits the latencies of a fixed-rate step's ops into blocks
// of about blockSec by when each op was due: rewire cuts as del, rewire
// links as add, queries as query.
func splitBlocks(ops []op, wall time.Duration) []*block {
	n := max(1, int(wall.Seconds()/blockSec+0.5))
	blocks := make([]*block, n)
	for i := range blocks {
		blocks[i] = &block{}
	}
	for i := range ops {
		o := &ops[i]
		b := blocks[min(n-1, int(int64(o.due)*int64(n)/int64(wall)))]
		lat := ms(o.done - o.due)
		switch o.kind {
		case opCut:
			b.del = append(b.del, lat)
		case opLink:
			b.add = append(b.add, lat)
		case opPathSum, opPathMax, opConnected:
			b.query = append(b.query, lat)
		}
	}
	return blocks
}

// printStep reports one step, pooled over epochs: latency by op class,
// generator lateness, completion, GC pause, and whether it met the limits.
func printStep(w io.Writer, st *stepResult) {
	rate := fmt.Sprintf("%.0f ops/s", st.rate)
	if st.rate == 0 {
		rate = fmt.Sprintf("unthrottled, answered %.0f ops/s", float64(st.answered)/st.wall.Seconds())
	}
	fmt.Fprintf(w, "# step %-13s %s, %d ops in %.2fs: op p50=%.4gms p90=%.4gms, serve.op_tail_ms.%s %s\n",
		st.name, rate, st.ops, st.wall.Seconds(), quantile(st.all, 0.5), quantile(st.all, 0.9), st.name, tail(st.all))
	fmt.Fprintf(w, "#   link p50/p90=%.4g/%.4gms (n=%d) cut=%.4g/%.4gms (n=%d) query=%.4g/%.4gms (n=%d)\n",
		quantile(st.link, 0.5), quantile(st.link, 0.9), len(st.link), quantile(st.cut, 0.5), quantile(st.cut, 0.9), len(st.cut),
		quantile(st.query, 0.5), quantile(st.query, 0.9), len(st.query))
	_, verdict := st.verdict()
	fmt.Fprintf(w, "#   generator lateness p90=%.4gms max=%.4gms; backlog %.4f; GC pause %.3gms; %s\n",
		quantile(st.late, 0.9), quantile(st.late, 1), st.backlogFrac(), float64(st.rt.pauseNs)/1e6, verdict)
}

// verdict reports whether a fixed-rate step met the limits — no failed op,
// p90 latency within limitMs, at most 1% backlog (the
// backlog did not grow) — and says why not. A step whose generator ran
// late past lateLimitMs measured the harness, not the Batcher.
func (st *stepResult) verdict() (bool, string) {
	switch {
	case st.rate == 0:
		return false, "saturated by design"
	case quantile(st.late, 0.9) > lateLimitMs:
		return false, fmt.Sprintf("GENERATOR BEHIND: p90 lateness above %.0fms, the step measures the harness", lateLimitMs)
	case st.failed > 0 || quantile(st.all, 0.9) > limitMs || st.backlogFrac() > 0.01:
		return false, fmt.Sprintf("over the limit (no failures, p90 <= %.0fms, <= 1%% answered later than %.0fms after the step)", limitMs, limitMs)
	}
	return true, "within limits"
}

// maxRate climbs the fixed rate ladder one rung per sz.rung seconds and
// reports the highest rate that met the limits, stopping at the first
// rung that did not.
func (s *server) maxRate() string {
	best, log := 0.0, ""
	for _, rate := range s.sz.ladder {
		st := s.step(fmt.Sprintf("ladder-%.0f", rate), rate, s.sz.rung, nil)
		ok, why := st.verdict()
		log += fmt.Sprintf(" %.0f:p90=%.3gms", rate, quantile(st.all, 0.9))
		if !ok {
			log += " (" + why + ")"
			break
		}
		best = rate
	}
	return fmt.Sprintf("# max_rate_ops_per_s=%.0f on the last epoch's forest, %gs per rung:%s", best, s.sz.rung, log)
}

// finalCheck compares the forest with the generator's copy once no
// Batcher owns it: every copy edge present (a forest on n vertices holding
// all n-1 of them holds nothing else) and a sample of PathSum answers.
func (s *server) finalCheck() {
	t, n := s.tree, s.sz.n
	missing := 0
	for v := 1; v < n; v++ {
		if !s.f.HasEdge(v, int(t.parent[v])) {
			missing++
		}
	}
	if missing > 0 {
		s.res.mismatch("final forest lacks %d of the generator's %d edges", missing, n-1)
	}
	pairs := make([][2]int, sampleQuery)
	for i := range pairs {
		pairs[i] = [2]int{s.z.sample(s.r), s.r.Intn(n)}
	}
	got, ok := s.f.(ufotree.BatchQuerier).BatchPathSum(pairs)
	if s.cfg.corrupt {
		got[0]++
	}
	for i, p := range pairs {
		if want := t.pathSum(p[0], p[1]); !ok[i] || got[i] != want {
			s.res.mismatch("final PathSum(%d,%d) = %d (ok=%v), generator copy says %d", p[0], p[1], got[i], ok[i], want)
		}
	}
	s.res.attempted += int64(n - 1 + len(pairs))
}

// serveRows reports the ingest layer's telemetry of one step.
func serveRows(res *result, st *stepResult) {
	in := st.stats.Ingest
	sfx := "." + st.name
	muts := float64(in.Links + in.Cuts)
	res.addLayer("serve.mean_window_ops"+sfx, in.MeanWindow, "count", fmt.Sprintf("ops per flushed window, %d windows", in.Flushes))
	res.addLayer("serve.mean_engine_batch"+sfx, in.MeanBatch, "count", fmt.Sprintf("committed mutations per engine sub-batch, %d sub-batches", in.Batches))
	res.addLayer("serve.engine_batches_per_flush"+sfx, per(float64(in.Batches), float64(in.Flushes)), "count",
		fmt.Sprintf("%d engine sub-batches / %d windows", in.Batches, in.Flushes))
	res.addLayer("serve.deferred_per_mutation"+sfx, per(float64(in.Deferred), muts), "count",
		fmt.Sprintf("%d deferrals / %.0f committed mutations", in.Deferred, muts))
	res.addLayer("serve.rejected_frac"+sfx, per(float64(in.Rejected), float64(in.Submitted)), "ratio",
		fmt.Sprintf("%d typed rejections / %d submitted", in.Rejected, in.Submitted))
	res.addLayer("serve.queue_depth_p90"+sfx, in.QueueDepth.P90, "count", "pending ops sampled at each flush, last <=16384 flushes")
	// Times the other workloads cannot report stay out of the per-layer
	// catalogue (a constant 0 there would read as a time) and print here.
	res.diagf("# serve.queue_wait_p50_ms%s=%.4g serve.queue_wait_p90_ms%s=%.4g serve.build_p90_ms%s=%.4g (ms, last <=16384 requests of the step)",
		sfx, in.QueueWaitNs.P50/1e6, sfx, in.QueueWaitNs.P90/1e6, sfx, in.BuildNs.P90/1e6)
}

// engineRows reports the update and query engine as the wrapper saw it
// during one traced step.
func engineRows(res *result, st *stepResult) {
	c, eng := st.calls, st.stats.Engine
	wall := st.wall
	res.addLayer("ufotree.self_ms_per_add_batch", per(ms(c.link.wall-c.link.engine), float64(c.link.calls)), "ms",
		fmt.Sprintf("BatchLink call time minus engine PhaseStats.Total, %d calls", c.link.calls))
	res.addLayer("ufotree.self_ms_per_delete_batch", per(ms(c.cut.wall-c.cut.engine), float64(c.cut.calls)), "ms",
		fmt.Sprintf("BatchCut call time minus engine PhaseStats.Total, %d calls", c.cut.calls))
	res.addLayer("ufo.update_busy_share", share(c.link.wall+c.cut.wall, wall), "ratio",
		fmt.Sprintf("BatchLink+BatchCut time / %.0f ms step wall time", ms(wall)))
	res.addLayer("ufo.us_per_link", per(float64(c.link.engine)/1e3, float64(c.link.items)), "us",
		fmt.Sprintf("engine time per linked edge, %d links", c.link.items))
	res.addLayer("ufo.us_per_cut", per(float64(c.cut.engine)/1e3, float64(c.cut.items)), "us",
		fmt.Sprintf("engine time per cut edge, %d cuts", c.cut.items))
	res.addLayer("ufo.levels_per_batch", per(float64(eng.Levels), float64(eng.Batches)), "count",
		fmt.Sprintf("contraction rounds / %d engine batches", eng.Batches))
	for _, ph := range []string{"recluster", "cond_delete", "disconnect"} {
		t, _ := phaseTime(eng, ph)
		res.addLayer("ufo."+ph+"_share", share(t, eng.Total), "ratio", fmt.Sprintf("of %.1f ms engine update time", ms(eng.Total)))
	}
	q := c.connected.wall + c.pathSum.wall + c.pathMax.wall
	res.addLayer("ufo.query_busy_share", share(q, wall), "ratio", fmt.Sprintf("batch query time / %.0f ms step wall time", ms(wall)))
	for _, k := range []struct {
		name string
		a    callAgg
	}{{"connected", c.connected}, {"pathsum", c.pathSum}, {"pathmax", c.pathMax}} {
		res.addLayer("ufo.queries_per_ms."+k.name, per(float64(k.a.items), ms(k.a.wall)), "1/ms",
			fmt.Sprintf("%d queries in %d batches / %.1f ms", k.a.items, k.a.calls, ms(k.a.wall)))
	}
	res.diagf("# admission point calls in the traced high step: ComponentID %d (%.1f ms), HasEdge %d (%.1f ms), Connected %d (%.1f ms)",
		c.componentID.calls, ms(c.componentID.wall), c.hasEdge.calls, ms(c.hasEdge.wall), c.pointConnects.calls, ms(c.pointConnects.wall))
}
