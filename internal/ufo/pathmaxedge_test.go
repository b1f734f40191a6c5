package ufo

import (
	"testing"

	"repro/internal/admit"
	"repro/internal/gen"
	"repro/internal/rng"
)

// naiveMaxEdge recomputes PathMaxEdge by scanning the explicit vertex path:
// the maximum (weight, key) edge under the same lexicographic order the
// aggregates maintain. path is a vertex list, w the level-0 weight table.
func naiveMaxEdge(path []int, w map[uint64]int64) (int64, int, int, bool) {
	if len(path) < 2 {
		return 0, 0, 0, false
	}
	mx, mk := int64(negInf), uint64(0)
	for i := 1; i < len(path); i++ {
		k := admit.Key(path[i-1], path[i])
		mx, mk = wkMax(mx, mk, w[k], k)
	}
	x, y := decodeEdgeKey(mk)
	return mx, x, y, true
}

// refPathVerts finds the u..v vertex path by BFS over the edge table.
func refPathVerts(n, u, v int, adj [][]int) []int {
	if u == v {
		return []int{u}
	}
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = u
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if prev[y] != -1 {
				continue
			}
			prev[y] = x
			if y == v {
				var path []int
				for c := v; c != u; c = prev[c] {
					path = append(path, c)
				}
				path = append(path, u)
				return path
			}
			queue = append(queue, y)
		}
	}
	return nil
}

// TestPathMaxEdgeDifferential pins PathMaxEdge and BatchPathMaxEdge against
// a naive path-scan recompute across tree shapes, weight ranges chosen to
// force equal-weight ties, both batch walk modes, and link/cut churn.
func TestPathMaxEdgeDifferential(t *testing.T) {
	shapes := []gen.Tree{
		gen.Path(48),
		gen.Star(48),
		gen.RandomDegree3(64, 7),
		gen.PrefAttach(64, 11),
	}
	for _, maxW := range []int64{1, 3, 1 << 30} {
		for _, base := range shapes {
			tr := gen.WithRandomWeights(base, maxW, uint64(maxW)*31+5)
			for _, mode := range []QueryMode{QueryIndependent, QueryShared} {
				f := New(tr.N)
				forceParallelQueries(t, f)
				f.SetQueryMode(mode)
				edges := make([]Edge, len(tr.Edges))
				weights := map[uint64]int64{}
				adj := make([][]int, tr.N)
				for i, e := range tr.Edges {
					edges[i] = Edge{U: e.U, V: e.V, W: e.W}
					weights[admit.Key(e.U, e.V)] = e.W
					adj[e.U] = append(adj[e.U], e.V)
					adj[e.V] = append(adj[e.V], e.U)
				}
				f.BatchLink(edges)
				checkMaxEdges(t, tr.Name, f, weights, adj, 64, uint64(maxW)+3)

				// Churn: cut a third of the edges and verify again — the
				// argmax aggregate must survive recomputation and slot
				// recycling.
				r := rng.New(uint64(maxW) * 977)
				var cuts [][2]int
				for _, e := range tr.Edges {
					if r.Intn(3) == 0 {
						cuts = append(cuts, [2]int{e.U, e.V})
						delete(weights, admit.Key(e.U, e.V))
					}
				}
				if len(cuts) > 0 {
					f.BatchCut(cuts)
					adj = make([][]int, tr.N)
					for k := range weights {
						x, y := decodeEdgeKey(k)
						adj[x] = append(adj[x], y)
						adj[y] = append(adj[y], x)
					}
					if err := f.Validate(); err != nil {
						t.Fatalf("%s maxW=%d: post-cut Validate: %v", tr.Name, maxW, err)
					}
					checkMaxEdges(t, tr.Name+"/cut", f, weights, adj, 64, uint64(maxW)+17)
				}
			}
		}
	}
}

func checkMaxEdges(t *testing.T, ctx string, f *Forest, weights map[uint64]int64, adj [][]int, q int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	n := f.N()
	pairs := make([][2]int, q)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	pairs[0] = [2]int{1 % n, 1 % n} // pin the u == v contract
	bw, bx, by, bok := f.BatchPathMaxEdge(pairs)
	for i, p := range pairs {
		u, v := p[0], p[1]
		w, x, y, ok := f.PathMaxEdge(u, v)
		if w != bw[i] || x != bx[i] || y != by[i] || ok != bok[i] {
			t.Fatalf("%s: BatchPathMaxEdge[%d]=(%d,%d) = (%d,%d,%d,%v), single-op (%d,%d,%d,%v)",
				ctx, i, u, v, bw[i], bx[i], by[i], bok[i], w, x, y, ok)
		}
		path := refPathVerts(n, u, v, adj)
		ww, wx, wy, wok := int64(0), 0, 0, false
		if path != nil && u != v {
			ww, wx, wy, wok = naiveMaxEdge(path, weights)
		}
		if ok != wok || (ok && (w != ww || x != wx || y != wy)) {
			t.Fatalf("%s: PathMaxEdge(%d,%d) = (%d,%d,%d,%v), naive (%d,%d,%d,%v)",
				ctx, u, v, w, x, y, ok, ww, wx, wy, wok)
		}
	}
}
