package ufo

// Shared-traversal batch queries (the cooperative walk mode selected by
// QueryAuto/QueryShared — see batchquery.go for the mode contract).
//
// Between updates the hierarchy is immutable and every cluster's parent
// sits exactly one level up (a validated invariant), so vertex v's
// leaf-to-root chain is indexed by level and two connected endpoints'
// chains are identical from their LCA cluster upward. The walker exploits
// this two ways:
//
//   - Connectivity: roots are memoized per *cluster* (rootOf). The first
//     walk through a region stamps every cluster on it with the root; any
//     later query whose walk enters a stamped cluster stops there. Over a
//     batch this costs O(unique clusters touched), the bound from Ikram et
//     al.'s shared batch queries, instead of O(q · height).
//   - Path aggregates: representative-path chains are memoized per
//     *endpoint vertex* (chainOf) — entry l holds v's ancestor at level l
//     and v's reps within it. A pair (u,v) then scans the two chains
//     upward for the first common cluster (4-byte handle compares, no row
//     loads) and combines the level-below reps with the same combinePaths
//     the independent walk exits through, so results are bit-identical.
//
// Workers cooperate within their range: each fan-out chunk draws a
// qscratch from the forest's pool, so sharing never crosses goroutines
// and no synchronization is needed beyond the pool itself. Scratch
// validity is epoch-stamped — beginning a batch bumps the epoch instead
// of clearing the O(n) stamp arrays.

// chainEnt is one level of an endpoint's memoized walk: the ancestor
// cluster and the endpoint's representative paths within it.
type chainEnt struct {
	c cref
	r rep
}

// chainRange locates one endpoint's chain inside qscratch.ents.
type chainRange struct {
	off, n int32
}

// qscratch is one worker's shared-traversal scratch. Pooled on the Forest
// (getQS/putQS) so steady-state batches reuse warm arrays; the stamp
// slices are lazily sized to the vertex count / arena slot count and kept
// across batches. The plain counters accumulate one batch's telemetry and
// are flushed into the forest's atomic counters by putQS.
type qscratch struct {
	// Per-vertex chain memo (path aggregates).
	vstamp []uint32
	vepoch uint32
	vchain []chainRange
	ents   []chainEnt

	// Per-cluster root memo (connectivity).
	cstamp []uint32
	cepoch uint32
	croot  []cref
	walk   []cref

	// Batch-local telemetry, flushed by putQS.
	endpoints, memoRoots, memoChains, clusters int64
}

// getQS draws a scratch from the forest's pool (allocating the first time
// a worker needs one).
func (f *Forest) getQS() *qscratch {
	if v := f.qsPool.Get(); v != nil {
		return v.(*qscratch)
	}
	return &qscratch{}
}

// putQS flushes the scratch's batch-local telemetry into the forest's
// cumulative counters and returns it to the pool.
func (f *Forest) putQS(qs *qscratch) {
	if qs.endpoints != 0 {
		f.qc.sharedEndpoints.Add(qs.endpoints)
	}
	if qs.memoRoots != 0 {
		f.qc.sharedMemoizedRoots.Add(qs.memoRoots)
	}
	if qs.memoChains != 0 {
		f.qc.sharedMemoizedChains.Add(qs.memoChains)
	}
	if qs.clusters != 0 {
		f.qc.sharedChainClusters.Add(qs.clusters)
	}
	qs.endpoints, qs.memoRoots, qs.memoChains, qs.clusters = 0, 0, 0, 0
	f.qsPool.Put(qs)
}

// bumpEpoch invalidates a stamp slice in O(1) by advancing its epoch,
// falling back to an explicit clear once per 2³² batches when the counter
// wraps (stamp 0 must never equal a live epoch — fresh slices are zeroed).
func bumpEpoch(epoch *uint32, stamps []uint32) {
	*epoch++
	if *epoch == 0 {
		clear(stamps)
		*epoch = 1
	}
}

// beginVerts readies the per-vertex chain memo for one batch.
func (qs *qscratch) beginVerts(n int) {
	if len(qs.vstamp) < n {
		qs.vstamp = make([]uint32, n)
		qs.vchain = make([]chainRange, n)
		qs.vepoch = 0
	}
	bumpEpoch(&qs.vepoch, qs.vstamp)
	qs.ents = qs.ents[:0]
}

// beginClusters readies the per-cluster root memo for one batch. slots is
// the arena's bump cursor (handles are always below it).
func (qs *qscratch) beginClusters(slots int) {
	if len(qs.cstamp) < slots {
		qs.cstamp = make([]uint32, slots)
		qs.croot = make([]cref, slots)
		qs.cepoch = 0
	}
	bumpEpoch(&qs.cepoch, qs.cstamp)
}

// rootOf returns the root cluster of c's component, memoizing the answer
// on every cluster of the walk so later walks through the same region
// stop at first contact.
func (qs *qscratch) rootOf(a *arena, c cref) cref {
	if qs.cstamp[c] == qs.cepoch {
		qs.memoRoots++
		return qs.croot[c]
	}
	w := qs.walk[:0]
	par := a.par
	var root cref
	for {
		if qs.cstamp[c] == qs.cepoch {
			root = qs.croot[c]
			break
		}
		p := par[c]
		if p == nilRef {
			root = c
			break
		}
		w = append(w, c)
		c = p
	}
	qs.clusters += int64(len(w)) + 1
	qs.endpoints++
	for _, x := range w {
		qs.cstamp[x] = qs.cepoch
		qs.croot[x] = root
	}
	qs.cstamp[c] = qs.cepoch
	qs.croot[c] = root
	qs.walk = w[:0]
	return root
}

// chainOf returns vertex v's memoized leaf-to-root chain, computing it on
// first touch: one stepRep ascent per distinct endpoint per batch, however
// many queries name v.
func (qs *qscratch) chainOf(f *Forest, v int) chainRange {
	if qs.vstamp[v] == qs.vepoch {
		qs.memoChains++
		return qs.vchain[v]
	}
	a := &f.a
	par := a.par
	off := int32(len(qs.ents))
	c := f.leaf(v)
	r := rep{e: [2]repEntry{{v: int32(v), sum: 0, max: negInf}}, n: 1}
	qs.ents = append(qs.ents, chainEnt{c: c, r: r})
	for {
		p := par[c]
		if p == nilRef {
			break
		}
		a.stepRep(c, &r)
		c = p
		qs.ents = append(qs.ents, chainEnt{c: c, r: r})
	}
	cr := chainRange{off: off, n: int32(len(qs.ents)) - off}
	qs.vchain[v] = cr
	qs.vstamp[v] = qs.vepoch
	qs.endpoints++
	qs.clusters += int64(cr.n)
	return cr
}

// sharedPathAgg answers one path-aggregate query from the memoized chains:
// scan both chains upward for the first common cluster (the chains are
// level-indexed, so entry l is the level-l ancestor) and combine the reps
// one level below it — the same exit as the independent lockstep walk.
func (f *Forest) sharedPathAgg(qs *qscratch, u, v int) (sum, mx int64, mxKey uint64, cnt int32, ok bool) {
	if u == v {
		return 0, negInf, 0, 0, true
	}
	cu := qs.chainOf(f, u)
	cv := qs.chainOf(f, v)
	// Slice after both chains exist: chainOf may grow (and move) ents.
	eu := qs.ents[cu.off : cu.off+cu.n]
	ev := qs.ents[cv.off : cv.off+cv.n]
	if cu.n != cv.n || eu[cu.n-1].c != ev[cv.n-1].c {
		return 0, 0, 0, 0, false // different roots: disconnected
	}
	l := 1 // distinct leaves can first coincide at level 1
	for eu[l].c != ev[l].c {
		l++
	}
	return f.a.combinePaths(eu[l-1].c, ev[l-1].c, &eu[l-1].r, &ev[l-1].r)
}

// batchConnectedShared answers a connectivity batch through the
// per-cluster root memo.
func (f *Forest) batchConnectedShared(pairs [][2]int, out []bool) {
	a := &f.a
	slots := int(a.next)
	f.forQueriesShared(len(pairs), func(lo, hi int) {
		qs := f.getQS()
		qs.beginClusters(slots)
		for i := lo; i < hi; i++ {
			u, v := pairs[i][0], pairs[i][1]
			out[i] = u == v || qs.rootOf(a, f.leaf(u)) == qs.rootOf(a, f.leaf(v))
		}
		f.putQS(qs)
	})
}

// batchAggShared answers a path-aggregate batch through the per-endpoint
// chain memo, handing each result to emit.
func (f *Forest) batchAggShared(pairs [][2]int, emit func(i int, sum, mx int64, mxKey uint64, cnt int32, ok bool)) {
	f.forQueriesShared(len(pairs), func(lo, hi int) {
		qs := f.getQS()
		qs.beginVerts(f.n)
		for i := lo; i < hi; i++ {
			s, m, mk, c, ok := f.sharedPathAgg(qs, pairs[i][0], pairs[i][1])
			emit(i, s, m, mk, c, ok)
		}
		f.putQS(qs)
	})
}

// batchLCAShared answers an LCA batch: the three hop distances of every
// triple come from the shared chains, the median descent stays per-triple.
func (f *Forest) batchLCAShared(triples [][3]int, out []int, ok []bool) {
	f.forQueriesShared(len(triples), func(lo, hi int) {
		qs := f.getQS()
		qs.beginVerts(f.n)
		for i := lo; i < hi; i++ {
			u, v, r := triples[i][0], triples[i][1], triples[i][2]
			_, _, _, duv, ok1 := f.sharedPathAgg(qs, u, v)
			_, _, _, dur, ok2 := f.sharedPathAgg(qs, u, r)
			_, _, _, dvr, ok3 := f.sharedPathAgg(qs, v, r)
			if !ok1 || !ok2 || !ok3 {
				out[i], ok[i] = 0, false
				continue
			}
			k := (int(duv) + int(dur) - int(dvr)) / 2
			out[i], ok[i] = f.SelectOnPath(u, v, k)
		}
		f.putQS(qs)
	})
}

// choosePairsShared decides the walk mode for a batch of (u,v) queries.
func (f *Forest) choosePairsShared(pairs [][2]int) bool {
	return f.chooseShared(len(pairs), 2*len(pairs), func(qs *qscratch) int {
		uniq := 0
		for _, p := range pairs {
			uniq += qs.markVertex(p[0]) + qs.markVertex(p[1])
		}
		return uniq
	})
}

// chooseTriplesShared decides the walk mode for a batch of (u,v,r) queries.
func (f *Forest) chooseTriplesShared(triples [][3]int) bool {
	return f.chooseShared(len(triples), 3*len(triples), func(qs *qscratch) int {
		uniq := 0
		for _, t := range triples {
			uniq += qs.markVertex(t[0]) + qs.markVertex(t[1]) + qs.markVertex(t[2])
		}
		return uniq
	})
}

// markVertex stamps v for the distinct-endpoint count, returning 1 on
// first sight.
func (qs *qscratch) markVertex(v int) int {
	if qs.vstamp[v] == qs.vepoch {
		return 0
	}
	qs.vstamp[v] = qs.vepoch
	return 1
}

// chooseShared implements the QueryAuto heuristic: forced modes win;
// otherwise a batch goes shared when it carries at least sharedMinBatch
// queries and its endpoints repeat — countUniq (an O(q) stamp pass over
// the total endpoint mentions) finds the average endpoint named at least
// twice, i.e. unique ≤ total/2. Below that duplication the chain memo
// mostly misses and the plain fan-out's zero setup cost wins.
func (f *Forest) chooseShared(q, total int, countUniq func(*qscratch) int) bool {
	switch f.queryMode {
	case QueryIndependent:
		return false
	case QueryShared:
		return true
	}
	if q < sharedMinBatch {
		return false
	}
	qs := f.getQS()
	qs.beginVerts(f.n)
	uniq := countUniq(qs)
	f.putQS(qs)
	return 2*uniq <= total
}
