package ufo

import "fmt"

// LCA returns the lowest common ancestor of u and v when their tree is
// rooted at r (Theorem 4.4; u, v and r are interchangeable — the result is
// the median of the three vertices). ok is false when u, v, r are not all
// in one tree.
//
// The implementation combines three hop-count path queries with a
// path-selection descent: the median m is the vertex on the u..v path at
// distance (d(u,v)+d(u,r)-d(v,r))/2 from u. Total cost is O(h²) for tree
// height h = O(min{log n, D}).
func (f *Forest) LCA(u, v, r int) (int, bool) {
	duv, ok1 := f.PathHops(u, v)
	dur, ok2 := f.PathHops(u, r)
	dvr, ok3 := f.PathHops(v, r)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	k := (duv + dur - dvr) / 2
	return f.SelectOnPath(u, v, k)
}

// SelectOnPath returns the vertex at hop distance k from u on the unique
// u..v path (k = 0 gives u, k = d(u,v) gives v). ok is false when u and v
// are disconnected or k is out of range.
func (f *Forest) SelectOnPath(u, v, k int) (int, bool) {
	if u == v {
		return u, k == 0
	}
	if k < 0 {
		return 0, false
	}
	a := &f.a
	cu, cv := f.leaf(u), f.leaf(v)
	ru := rep{e: [2]repEntry{{v: int32(u), sum: 0, max: negInf}}, n: 1}
	rv := rep{e: [2]repEntry{{v: int32(v), sum: 0, max: negInf}}, n: 1}
	for {
		pu, pv := a.par[cu], a.par[cv]
		if pu == nilRef || pv == nilRef {
			return 0, false
		}
		if pu == pv {
			break
		}
		a.stepRep(cu, &ru)
		a.stepRep(cv, &rv)
		cu, cv = pu, pv
	}
	if g, found := a.edgeBetween(cu, cv); found {
		eu, _ := ru.get(g.myV)
		ev, _ := rv.get(g.otherV)
		total := int(eu.cnt) + 1 + int(ev.cnt)
		switch {
		case k > total:
			return 0, false
		case k <= int(eu.cnt):
			return int(f.findAt(cu, int32(u), g.myV, k)), true
		default:
			return int(f.findAt(cv, int32(v), g.otherV, total-k)), true
		}
	}
	// Two leaves of one superunary merge: route through the center.
	eU, _ := a.at(cu).adj.any()
	eV, _ := a.at(cv).adj.any()
	entU, _ := ru.get(eU.myV)
	entV, _ := rv.get(eV.myV)
	center := eU.to
	centerCnt := 0
	if eU.otherV != eV.otherV {
		centerCnt = int(a.at(center).pathCnt)
	}
	total := int(entU.cnt) + 1 + centerCnt + 1 + int(entV.cnt)
	switch {
	case k > total:
		return 0, false
	case k <= int(entU.cnt):
		return int(f.findAt(cu, int32(u), eU.myV, k)), true
	case k <= int(entU.cnt)+1+centerCnt:
		j := k - int(entU.cnt) - 1
		return int(f.findAt(center, eU.otherV, eV.otherV, j)), true
	default:
		return int(f.findAt(cv, int32(v), eV.myV, total-k)), true
	}
}

// findAt returns the vertex at hop j on the path from vertex x to vertex b,
// both contained in cluster C (the path stays inside C because clusters are
// connected subgraphs).
func (f *Forest) findAt(C cref, x, b int32, j int) int32 {
	a := &f.a
	for {
		if j == 0 {
			return x
		}
		hC := a.at(C)
		if hC.level == 0 {
			panic(fmt.Sprintf("ufo: findAt reached a leaf with %d hops left", j))
		}
		A := f.ancAtLevel(x, hC.level-1)
		B := f.ancAtLevel(b, hC.level-1)
		if A == B {
			C = A
			continue
		}
		if g, ok := a.edgeBetween(A, B); ok {
			cA := f.cntWithin(A, x, g.myV)
			if j <= cA {
				C, b = A, g.myV
				continue
			}
			j -= cA + 1
			x = g.otherV
			C = B
			continue
		}
		// A and B are both leaves of C's superunary merge: cross the center.
		m := hC.center
		if m == nilRef {
			panic("ufo: non-adjacent children without a center")
		}
		gA, okA := a.edgeBetween(A, m)
		gB, okB := a.edgeBetween(B, m)
		if !okA || !okB {
			panic("ufo: superunary leaf not adjacent to the center")
		}
		cA := f.cntWithin(A, x, gA.myV)
		if j <= cA {
			C, b = A, gA.myV
			continue
		}
		j -= cA + 1
		x = gA.otherV
		if j == 0 {
			return x
		}
		if gA.otherV != gB.otherV {
			cM := f.cntWithin(m, x, gB.otherV)
			if j <= cM {
				C, b = m, gB.otherV
				continue
			}
			j -= cM
			x = gB.otherV
		}
		// x is now at gB's center endpoint; cross into B.
		j--
		x = gB.myV
		C = B
	}
}

// ancAtLevel returns the ancestor cluster of vertex x at the given level.
func (f *Forest) ancAtLevel(x int32, level int32) cref {
	a := &f.a
	c := f.leaf(int(x))
	for a.at(c).level < level {
		c = a.par[c]
		if c == nilRef {
			panic("ufo: ancestor level out of range")
		}
	}
	return c
}

// cntWithin returns the number of edges on the path from vertex x to the
// boundary vertex b inside cluster C.
func (f *Forest) cntWithin(C cref, x, b int32) int {
	if x == b {
		return 0
	}
	a := &f.a
	c := f.leaf(int(x))
	r := rep{e: [2]repEntry{{v: x, sum: 0, max: negInf}}, n: 1}
	for c != C {
		a.stepRep(c, &r)
		c = a.par[c]
		if c == nilRef {
			panic("ufo: cntWithin walked past the target cluster")
		}
	}
	ent, ok := r.get(b)
	if !ok {
		panic("ufo: cntWithin target is not a boundary of the cluster")
	}
	return int(ent.cnt)
}
