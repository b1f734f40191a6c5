package ufo

import (
	"fmt"

	"repro/internal/admit"
)

// repEntry is one representative-path value: the aggregate of the edges on
// the unique path from the query vertex to the boundary vertex v of the
// current cluster.
type repEntry struct {
	v   int32
	sum int64
	max int64
	// maxK is the normalized edge key realizing max under the (weight,
	// key) total order — the same tie-break as Cluster.pathMaxKey, so
	// argmax answers are unique. 0 while max is the negInf identity.
	maxK uint64
	cnt  int32
}

// rep carries the representative paths of the current cluster: one entry
// per distinct boundary vertex (at most two).
type rep struct {
	e [2]repEntry
	n int
}

func (r *rep) get(v int32) (repEntry, bool) {
	for i := 0; i < r.n; i++ {
		if r.e[i].v == v {
			return r.e[i], true
		}
	}
	return repEntry{}, false
}

// stepRep lifts the representative paths of c to its parent, in place,
// implementing the inductive cases of Appendix C.2 in the unified
// boundary-vertex formulation: for each boundary b of the parent, either b
// lies inside c (copy), or the path continues through the merge edge g
// into the sibling's cluster path.
func (a *arena) stepRep(c cref, r *rep) {
	hc := a.at(c)
	hp := a.at(hc.parent)
	if len(hp.children) == 1 {
		return
	}
	pb, pn := hp.boundaries()
	if pn == 0 {
		*r = rep{}
		return
	}
	var out [2]repEntry
	if hp.center == c {
		// All of p's crossing edges are c's (leaves contribute none).
		for i := 0; i < pn; i++ {
			ent, ok := r.get(pb[i])
			if !ok {
				panic("ufo: representative path missing a center boundary")
			}
			out[i] = ent
		}
		r.e, r.n = out, pn
		return
	}
	// c attaches to exactly one sibling: the merge center, or its pair
	// partner.
	s := hp.center
	if s == nilRef {
		if hp.children[0] == c {
			s = hp.children[1]
		} else {
			s = hp.children[0]
		}
	}
	g, ok := a.edgeBetween(c, s)
	if !ok {
		panic("ufo: merge edge missing between siblings")
	}
	hs := a.at(s)
	// c has the crossing edge g, so it has at least one boundary.
	cb, cn := hc.boundaries()
	for i := 0; i < pn; i++ {
		b := pb[i]
		if b == cb[0] || (cn == 2 && b == cb[1]) {
			ent, ok := r.get(b)
			if !ok {
				panic("ufo: representative path missing a boundary")
			}
			out[i] = ent
			continue
		}
		base, ok := r.get(g.myV)
		if !ok {
			panic("ufo: representative path missing the merge boundary")
		}
		sum := base.sum + g.w
		mx, mk := wkMax(base.max, base.maxK, g.w, g.key)
		cnt := base.cnt + 1
		if b != g.otherV {
			// The path crosses the sibling's whole cluster path.
			sum += hs.pathSum
			mx, mk = wkMax(mx, mk, hs.pathMax, hs.pathMaxKey)
			cnt += hs.pathCnt
		}
		out[i] = repEntry{v: b, sum: sum, max: mx, maxK: mk, cnt: cnt}
	}
	r.e, r.n = out, pn
}

// pathAgg walks both leaf-to-root chains in lockstep to the LCA cluster,
// maintaining representative paths, and combines them through the
// connecting edge (or through the superunary center when the two children
// are both leaves of an unbounded-fanout merge).
func (f *Forest) pathAgg(u, v int) (sum, mx int64, mxKey uint64, cnt int32, ok bool) {
	if u == v {
		return 0, negInf, 0, 0, true
	}
	a := &f.a
	cu, cv := f.leaf(u), f.leaf(v)
	ru := rep{e: [2]repEntry{{v: int32(u), sum: 0, max: negInf}}, n: 1}
	rv := rep{e: [2]repEntry{{v: int32(v), sum: 0, max: negInf}}, n: 1}
	for {
		pu, pv := a.par[cu], a.par[cv]
		if pu == nilRef || pv == nilRef {
			return 0, 0, 0, 0, false
		}
		if pu == pv {
			break
		}
		a.stepRep(cu, &ru)
		a.stepRep(cv, &rv)
		cu, cv = pu, pv
	}
	return a.combinePaths(cu, cv, &ru, &rv)
}

// combinePaths joins two representative paths at their LCA cluster: cu and
// cv are distinct siblings (children of the walks' first common ancestor)
// carrying the reps of the two query endpoints. Shared verbatim by the
// independent lockstep walk above and the shared-traversal batch walker.
func (a *arena) combinePaths(cu, cv cref, ru, rv *rep) (sum, mx int64, mxKey uint64, cnt int32, ok bool) {
	if g, found := a.edgeBetween(cu, cv); found {
		eu, okU := ru.get(g.myV)
		ev, okV := rv.get(g.otherV)
		if !okU || !okV {
			panic("ufo: representative paths missing connecting boundaries")
		}
		m, mk := wkMax(eu.max, eu.maxK, g.w, g.key)
		m, mk = wkMax(m, mk, ev.max, ev.maxK)
		return eu.sum + g.w + ev.sum, m, mk, eu.cnt + 1 + ev.cnt, true
	}
	// Both are leaves of the same superunary merge: the path runs through
	// the center. For UFO trees the center has a single boundary vertex and
	// the center path is empty; RC rake centers may have two boundary
	// vertices, in which case the center's cluster path joins the two
	// attachment points.
	eU, okU := a.at(cu).adj.any()
	eV, okV := a.at(cv).adj.any()
	if !okU || !okV {
		panic("ufo: superunary leaves without edges")
	}
	entU, okU := ru.get(eU.myV)
	entV, okV := rv.get(eV.myV)
	if !okU || !okV {
		panic("ufo: representative paths missing leaf boundaries")
	}
	sum = entU.sum + eU.w + eV.w + entV.sum
	mx, mxKey = wkMax(entU.max, entU.maxK, eU.w, eU.key)
	mx, mxKey = wkMax(mx, mxKey, eV.w, eV.key)
	mx, mxKey = wkMax(mx, mxKey, entV.max, entV.maxK)
	cnt = entU.cnt + 2 + entV.cnt
	if eU.otherV != eV.otherV {
		hcen := a.at(eU.to)
		sum += hcen.pathSum
		mx, mxKey = wkMax(mx, mxKey, hcen.pathMax, hcen.pathMaxKey)
		cnt += hcen.pathCnt
	}
	return sum, mx, mxKey, cnt, true
}

// PathSum returns the sum of edge weights on the u..v path in
// O(min{log n, D}) time; ok is false if u and v are disconnected.
func (f *Forest) PathSum(u, v int) (int64, bool) {
	s, _, _, _, ok := f.pathAgg(u, v)
	return s, ok
}

// PathMax returns the maximum edge weight on the u..v path in
// O(min{log n, D}) time; ok is false if disconnected or u == v.
func (f *Forest) PathMax(u, v int) (int64, bool) {
	if u == v {
		return 0, false
	}
	_, m, _, _, ok := f.pathAgg(u, v)
	return m, ok
}

// PathMaxEdge returns the maximum-weight edge on the u..v path together
// with its endpoints (x < y, the normalized order). Equal weights break
// toward the larger normalized edge key, so the answer is the unique
// maximum under the (weight, key) total order — the argmax the MSF layer's
// swap rule needs. ok is false if u and v are disconnected or u == v.
func (f *Forest) PathMaxEdge(u, v int) (w int64, x, y int, ok bool) {
	if u == v {
		return 0, 0, 0, false
	}
	_, m, mk, _, ok := f.pathAgg(u, v)
	if !ok {
		return 0, 0, 0, false
	}
	x, y = decodeEdgeKey(mk)
	return m, x, y, true
}

// decodeEdgeKey unpacks a normalized edge key into its endpoints (x < y).
func decodeEdgeKey(k uint64) (x, y int) {
	return int(int32(k >> 32)), int(int32(uint32(k)))
}

// PathHops returns the number of edges on the u..v path; ok is false when
// u and v are disconnected.
func (f *Forest) PathHops(u, v int) (int, bool) {
	_, _, _, c, ok := f.pathAgg(u, v)
	return int(c), ok
}

// ComponentSum returns the sum of vertex values in u's tree in
// O(min{log n, D}) time.
func (f *Forest) ComponentSum(u int) int64 {
	return f.a.at(f.a.top(f.leaf(u))).subSum
}

// frontier is the set of boundary vertices (≤ 2) of the current cluster
// through whose crossing edges the queried subtree extends further.
type frontier struct {
	v [2]int32
	n int
}

func (fr *frontier) has(x int32) bool {
	for i := 0; i < fr.n; i++ {
		if fr.v[i] == x {
			return true
		}
	}
	return false
}

func (fr *frontier) add(x int32) {
	if !fr.has(x) {
		fr.v[fr.n] = x
		fr.n++
	}
}

// SubtreeSum returns the sum of vertex values in the subtree rooted at v
// when its tree is rooted so that p is v's parent (p must be adjacent to
// v), in O(min{log n, D}) time. Vertex values are group elements (int64
// addition), which is what makes the frontier ascent O(1) per level: the
// contents of all siblings are P.subSum − X.subSum (Appendix C.2,
// "subtree queries with invertible functions").
func (f *Forest) SubtreeSum(v, p int) int64 {
	return f.subtreeAgg(v, p, func(c *Cluster) int64 { return c.subSum })
}

// SubtreeSize returns the number of vertices in the subtree rooted at v
// with respect to parent p, in O(min{log n, D}) time.
func (f *Forest) SubtreeSize(v, p int) int {
	return int(f.subtreeAgg(v, p, func(c *Cluster) int64 { return c.vcnt }))
}

// subtreeAgg implements the frontier ascent shared by all invertible
// subtree aggregates; val extracts the aggregate being queried (it reads
// hot-row fields only, so taking a row pointer is safe and convenient).
func (f *Forest) subtreeAgg(v, p int, val func(*Cluster) int64) int64 {
	a := &f.a
	key := admit.Key(v, p)
	if !a.at(f.leaf(v)).adj.has(key) {
		panic(fmt.Sprintf("ufo: subtree query with non-adjacent (%d,%d)", v, p))
	}
	cv, cp := f.leaf(v), f.leaf(p)
	for a.par[cv] != a.par[cp] {
		cv, cp = a.par[cv], a.par[cp]
		if cv == nilRef || cp == nilRef {
			panic("ufo: adjacent vertices with no common ancestor")
		}
	}
	V, U := cv, cp
	hV := a.at(V)
	lca := hV.parent
	if lca == nilRef {
		panic("ufo: adjacent vertices without an LCA cluster")
	}
	hlca := a.at(lca)
	var sum int64
	var fr frontier
	switch {
	case hlca.center == V:
		// v's side is the superunary center: every sibling except U (the
		// p side) hangs off V's boundary and is inside the subtree.
		sum = val(hlca) - val(a.at(U))
		b, n := hlca.boundaries()
		for i := 0; i < n; i++ {
			fr.add(b[i])
		}
	case hlca.center == U:
		// v's side is a degree-1 leaf of the superunary merge: the
		// subtree is exactly V.
		return val(hV)
	default:
		// Pair merge: the subtree within the LCA is V; it extends through
		// V's crossing edges other than the (p,v) edge itself.
		sum = val(hV)
		epv, ok := hV.adj.get(key)
		if !ok {
			panic("ufo: (p,v) edge missing at the LCA level")
		}
		bs, n := hV.boundaries()
		for i := 0; i < n; i++ {
			b := bs[i]
			if b != epv.myV {
				fr.add(b)
				continue
			}
			// Keep the (p,v) boundary only if another crossing edge of V
			// lands there.
			others := 0
			if hV.adj.degree() >= 3 {
				others = 1 // single-boundary invariant: all edges at b
			} else {
				hV.adj.forEach(func(er EdgeRef) bool {
					if er.key != key && er.myV == b {
						others++
						return false
					}
					return true
				})
			}
			if others > 0 {
				fr.add(b)
			}
		}
	}
	// Ascend: at each level, the sibling complex attaches to X at a single
	// vertex; if that vertex is on the subtree frontier, all siblings lie
	// inside the subtree.
	X := lca
	for fr.n > 0 && a.at(X).parent != nilRef {
		hX := a.at(X)
		P := hX.parent
		hP := a.at(P)
		if len(hP.children) > 1 {
			if hP.center == X {
				_, xn := hX.boundaries()
				if xn == 0 {
					break
				}
				if xn == 1 {
					// All siblings attach at the single boundary, which
					// must be the frontier (F ⊆ boundaries(X)).
					sum += val(hP) - val(hX)
				} else {
					// RC-mode rake center with two boundary vertices:
					// include each leaf sibling individually by its
					// attachment vertex (fanout is degree-bounded here).
					for _, s := range hP.children {
						if s == X {
							continue
						}
						g, ok := a.edgeBetween(s, X)
						if !ok {
							panic("ufo: rake leaf not adjacent to center")
						}
						if fr.has(g.otherV) {
							sum += val(a.at(s))
						}
					}
				}
				fr = a.liftFrontier(P, X, fr)
				X = P
				continue
			}
			s := hP.center
			if s == nilRef {
				if hP.children[0] == X {
					s = hP.children[1]
				} else {
					s = hP.children[0]
				}
			}
			g, ok := a.edgeBetween(X, s)
			if !ok {
				panic("ufo: merge edge missing during subtree ascent")
			}
			if fr.has(g.myV) {
				sum += val(hP) - val(hX)
				fr = a.liftFrontier(P, X, fr)
			}
		}
		X = P
	}
	return sum
}

// liftFrontier maps the frontier of X to its parent P: P's boundary
// vertices minus those boundaries of X that were not on the frontier.
func (a *arena) liftFrontier(P, X cref, fr frontier) frontier {
	xb, xn := a.at(X).boundaries()
	var ex [2]int32
	nex := 0
	for i := 0; i < xn; i++ {
		if !fr.has(xb[i]) {
			ex[nex] = xb[i]
			nex++
		}
	}
	pb, pn := a.at(P).boundaries()
	var out frontier
	for i := 0; i < pn; i++ {
		excluded := false
		for j := 0; j < nex; j++ {
			if pb[i] == ex[j] {
				excluded = true
				break
			}
		}
		if !excluded {
			out.add(pb[i])
		}
	}
	return out
}
