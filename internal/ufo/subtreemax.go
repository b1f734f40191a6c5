package ufo

import (
	"fmt"

	"repro/internal/admit"
)

// Non-invertible subtree aggregates (§4.2 of the paper, Theorem 4.4).
//
// Subtree max cannot use the frontier-subtraction trick of SubtreeSum (max
// has no inverse), and recomputing over a high-fanout cluster's children
// would cost O(fanout). Following the paper, every tracked cluster stores
// its children in a rank tree (package ranktree) keyed by subtree weight,
// giving O(log) insertion, deletion, and — crucially — aggregate-except-one
// queries during the ascent. Lemma C.6 shows Ω(log n) is unavoidable here
// even at constant diameter, so the O(D) bound of the invertible queries is
// provably out of reach.
//
// Tracking is opt-in (EnableSubtreeMax) so that the default update paths
// carry no rank-tree cost; this mirrors the paper's presentation of the
// rank-tree machinery as an add-on for the non-invertible query family.
// The rank-tree state itself lives in the arena's cold rows, which only
// exist once tracking is enabled (arena.enableCold).

func max2(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// EnableSubtreeMax turns on non-invertible subtree aggregation. It must be
// called while the forest has no edges.
//
// Rank-tree maintenance is phase-local: structural phases record child-set
// changes in per-cluster repair buffers, and the engine's level-synchronous
// repair pass (maxrepair.go) rebuilds childTree values bottom-up, one level
// per contraction round. A trackMax forest therefore runs every structural
// phase — disconnect, conditional deletion, recluster, pair matching,
// adjacency lift — at the full SetWorkers count, like the plain engine.
func (f *Forest) EnableSubtreeMax() {
	if f.nEdges > 0 {
		panic("ufo: EnableSubtreeMax requires an empty forest")
	}
	f.trackMax = true
	f.a.enableCold()
	for v := 0; v < f.n; v++ {
		l := f.a.at(f.leaf(v))
		l.set(flagTrackMax)
		l.subMax = l.subSum
	}
}

// bubbleMax recomputes subMax at p and propagates changes upward, stopping
// as soon as an ancestor's value is unaffected. It is the single-point
// (out-of-batch) maintenance path, used by SetVertexValue between batch
// updates, when childTree and every childItem handle are consistent.
// Structural updates never bubble: the engine defers rank-tree maintenance
// to the level-synchronous repair pass in maxrepair.go.
func (f *Forest) bubbleMax(p cref) {
	a := &f.a
	for q := p; q != nilRef; q = a.at(q).parent {
		hq := a.at(q)
		qd := a.coldAt(q)
		var nm int64 = negInf
		if hq.level == 0 {
			nm = hq.subSum // a leaf's max is its own value
		} else if qd.childTree != nil {
			if agg, ok := qd.childTree.Aggregate(); ok {
				nm = agg
			}
		}
		if nm == hq.subMax && q != p {
			return
		}
		hq.subMax = nm
		if hq.parent != nilRef && qd.childItem != nil {
			a.coldAt(hq.parent).childTree.UpdateValue(qd.childItem, nm)
		}
	}
}

// SubtreeMax returns the maximum vertex value in the subtree rooted at v
// when p (adjacent to v) is its parent, in O(log n) time (Theorem 4.4).
// EnableSubtreeMax must have been called before building the forest.
func (f *Forest) SubtreeMax(v, p int) int64 {
	if !f.trackMax {
		panic("ufo: SubtreeMax requires EnableSubtreeMax before building")
	}
	a := &f.a
	key := admit.Key(v, p)
	if !a.at(f.leaf(v)).adj.has(key) {
		panic(fmt.Sprintf("ufo: subtree query with non-adjacent (%d,%d)", v, p))
	}
	cv, cp := f.leaf(v), f.leaf(p)
	for a.at(cv).parent != a.at(cp).parent {
		cv, cp = a.at(cv).parent, a.at(cp).parent
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
	var acc int64 = negInf
	var fr frontier
	switch {
	case hlca.center == V:
		// Everything in the LCA except the p side: O(log) via the rank
		// tree's aggregate-except-one.
		if ex, ok := a.coldAt(lca).childTree.AggregateExcept(a.coldAt(U).childItem); ok {
			acc = ex
		}
		b, n := hlca.boundaries()
		for i := 0; i < n; i++ {
			fr.add(b[i])
		}
	case hlca.center == U:
		return hV.subMax
	default:
		acc = hV.subMax
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
			others := 0
			if hV.adj.degree() >= 3 {
				others = 1
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
					if ex, ok := a.coldAt(P).childTree.AggregateExcept(a.coldAt(X).childItem); ok {
						acc = max2(acc, ex)
					}
				} else {
					// RC-mode two-boundary rake center: per-leaf
					// attachment split (fanout is degree-bounded here).
					for _, s := range hP.children {
						if s == X {
							continue
						}
						g, ok := a.edgeBetween(s, X)
						if !ok {
							panic("ufo: rake leaf not adjacent to center")
						}
						if fr.has(g.otherV) {
							acc = max2(acc, a.at(s).subMax)
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
				if ex, ok := a.coldAt(P).childTree.AggregateExcept(a.coldAt(X).childItem); ok {
					acc = max2(acc, ex)
				}
				fr = a.liftFrontier(P, X, fr)
			}
		}
		X = P
	}
	return acc
}

// ComponentMax returns the maximum vertex value in u's tree (requires
// EnableSubtreeMax).
func (f *Forest) ComponentMax(u int) int64 {
	if !f.trackMax {
		panic("ufo: ComponentMax requires EnableSubtreeMax before building")
	}
	return f.a.at(f.a.top(f.leaf(u))).subMax
}
