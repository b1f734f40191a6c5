package main

import (
	"sort"

	ufotree "repro"
)

// unionFind is the connectivity oracle, recomputed from the live edge set
// outside the timed sections. Its arrays are reused across recomputes so
// the oracle allocates nothing in steady state.
type unionFind struct {
	parent []int32
	comps  int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n)}
	u.reset()
	return u
}

func (u *unionFind) reset() {
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	u.comps = len(u.parent)
}

func (u *unionFind) find(x int) int {
	for int(u.parent[x]) != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = int(u.parent[x])
	}
	return x
}

func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[rb] = int32(ra)
	u.comps--
	return true
}

// edgeKey orders edges by normalized endpoints, the structures' tie-break
// for equal weights.
func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

func normalized(e ufotree.Edge) ufotree.Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// kruskal returns the minimum spanning forest of edges under the
// (weight, normalized key) order, sorted by normalized key, and its total
// weight: the MSF oracle.
func kruskal(n int, edges []ufotree.Edge) ([]ufotree.Edge, int64) {
	order := make([]ufotree.Edge, len(edges))
	for i, e := range edges {
		order[i] = normalized(e)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.W != b.W {
			return a.W < b.W
		}
		return edgeKey(a.U, a.V) < edgeKey(b.U, b.V)
	})
	uf := newUnionFind(n)
	var tree []ufotree.Edge
	var total int64
	for _, e := range order {
		if uf.union(e.U, e.V) {
			tree = append(tree, e)
			total += e.W
		}
	}
	sort.Slice(tree, func(i, j int) bool { return edgeKey(tree[i].U, tree[i].V) < edgeKey(tree[j].U, tree[j].V) })
	return tree, total
}

// dedupe drops self loops and repeated edges (in either orientation) from
// a generated multigraph, keeping first occurrences.
func dedupe(pairs [][2]int) [][2]int {
	seen := make(map[uint64]struct{}, len(pairs))
	out := make([][2]int, 0, len(pairs))
	for _, p := range pairs {
		if p[0] == p[1] {
			continue
		}
		k := edgeKey(p[0], p[1])
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, p)
	}
	return out
}
