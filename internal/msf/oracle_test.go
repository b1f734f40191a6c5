package msf

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/admit"
	"repro/internal/rng"
)

// oracle is the from-scratch Kruskal baseline: the live weighted edge set,
// recomputed into the unique minimum spanning forest (under the same
// (weight, key) order the structure minimizes) after every batch.
type oracle struct {
	n     int
	edges map[uint64]int64 // normalized key -> weight
}

func newOracle(n int) *oracle {
	return &oracle{n: n, edges: make(map[uint64]int64)}
}

func (o *oracle) add(es []Edge) {
	for _, e := range es {
		o.edges[admit.Key(e.U, e.V)] = e.W
	}
}

func (o *oracle) del(es []Edge) {
	for _, e := range es {
		delete(o.edges, admit.Key(e.U, e.V))
	}
}

func endpoints(k uint64) (int, int) {
	return int(int32(k >> 32)), int(int32(uint32(k)))
}

// kruskal recomputes the minimum spanning forest from scratch: edges
// sorted by (weight, key), union-find admission. Returns the forest's
// total weight and its sorted edge-key set — unique because (weight, key)
// is a total order, so equality against the incremental structure is exact
// set equality, not just equal weight.
func (o *oracle) kruskal() (total int64, tree []uint64) {
	keys := make([]uint64, 0, len(o.edges))
	for k := range o.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return less(o.edges[keys[i]], keys[i], o.edges[keys[j]], keys[j])
	})
	parent := make([]int, o.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, k := range keys {
		u, v := endpoints(k)
		ru, rv := find(u), find(v)
		if ru != rv {
			parent[rv] = ru
			total += o.edges[k]
			tree = append(tree, k)
		}
	}
	sort.Slice(tree, func(i, j int) bool { return tree[i] < tree[j] })
	return total, tree
}

// labels recomputes component labels over the live edge set.
func (o *oracle) labels() []int {
	parent := make([]int, o.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for k := range o.edges {
		u, v := endpoints(k)
		ru, rv := find(u), find(v)
		if ru != rv {
			parent[rv] = ru
		}
	}
	for i := range parent {
		parent[i] = find(i)
	}
	return parent
}

func (o *oracle) componentCount() int {
	lab := o.labels()
	seen := make(map[int]struct{})
	for _, l := range lab {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// lowGrains drops the fan-out grain so tiny test batches still exercise
// the parallel paths, restoring it on cleanup.
func lowGrains(t *testing.T) {
	t.Helper()
	old := classifyGrain
	classifyGrain = 2
	t.Cleanup(func() { classifyGrain = old })
}

// checkAgainstKruskal compares every observable against the from-scratch
// recompute: equal total weight, equal tree-edge set (keys and weights),
// counts, and connectivity for a set of random pairs.
func checkAgainstKruskal(t *testing.T, m *BatchDynamicMSF, o *oracle, r *rng.SplitMix64) {
	t.Helper()
	wantTotal, wantTree := o.kruskal()
	if got := m.TotalWeight(); got != wantTotal {
		t.Fatalf("TotalWeight = %d, Kruskal says %d", got, wantTotal)
	}
	gotEdges := m.TreeEdges()
	if len(gotEdges) != len(wantTree) {
		t.Fatalf("TreeEdges has %d edges, Kruskal forest has %d", len(gotEdges), len(wantTree))
	}
	for i, e := range gotEdges {
		k := admit.Key(e.U, e.V)
		if k != wantTree[i] {
			wu, wv := endpoints(wantTree[i])
			t.Fatalf("tree edge %d: got (%d,%d), Kruskal has (%d,%d)", i, e.U, e.V, wu, wv)
		}
		if e.W != o.edges[k] {
			t.Fatalf("tree edge (%d,%d): weight %d, oracle has %d", e.U, e.V, e.W, o.edges[k])
		}
		if !m.IsTreeEdge(e.U, e.V) || !m.HasEdge(e.U, e.V) {
			t.Fatalf("TreeEdges lists (%d,%d) but IsTreeEdge/HasEdge disagree", e.U, e.V)
		}
	}
	if got, want := m.EdgeCount(), len(o.edges); got != want {
		t.Fatalf("EdgeCount = %d, oracle has %d edges", got, want)
	}
	if got, want := m.TreeEdgeCount(), len(wantTree); got != want {
		t.Fatalf("TreeEdgeCount = %d, want %d", got, want)
	}
	if got, want := m.NonTreeEdgeCount(), len(o.edges)-len(wantTree); got != want {
		t.Fatalf("NonTreeEdgeCount = %d, want %d", got, want)
	}
	if got, want := m.ComponentCount(), o.componentCount(); got != want {
		t.Fatalf("ComponentCount = %d, oracle says %d", got, want)
	}
	if m.TreeEdgeCount()+m.ComponentCount() != m.N() {
		t.Fatalf("spanning forest invariant broken: tree=%d comps=%d n=%d",
			m.TreeEdgeCount(), m.ComponentCount(), m.N())
	}
	lab := o.labels()
	pairs := make([][2]int, 100)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(m.N()), r.Intn(m.N())}
	}
	got := m.BatchConnected(pairs)
	for i, p := range pairs {
		want := lab[p[0]] == lab[p[1]]
		if got[i] != want {
			t.Fatalf("BatchConnected(%d,%d) = %v, oracle says %v", p[0], p[1], got[i], want)
		}
	}
}

// churn drives one differential round: an add batch of fresh random
// weighted edges (weights in [0,maxW), small maxW forcing ties) and a
// delete batch biased toward tree edges (to force replacement searches),
// each replayed against Kruskal.
func churn(t *testing.T, m *BatchDynamicMSF, o *oracle, r *rng.SplitMix64, addK, delK int, maxW int64) {
	t.Helper()
	n := m.N()
	adds := make([]Edge, 0, addK)
	seen := make(map[uint64]struct{})
	for len(adds) < addK {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		k := admit.Key(u, v)
		if _, dup := seen[k]; dup {
			continue
		}
		if _, present := o.edges[k]; present {
			continue
		}
		seen[k] = struct{}{}
		adds = append(adds, Edge{U: u, V: v, W: r.Int63() % maxW})
	}
	m.BatchAddEdges(adds)
	o.add(adds)
	checkAgainstKruskal(t, m, o, r)

	if len(o.edges) < delK {
		return
	}
	live := make([]uint64, 0, len(o.edges))
	for k := range o.edges {
		live = append(live, k)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	// Tree edges first, so most delete batches sever the forest and drive
	// the replacement search; the tail mixes in non-tree deletes.
	sort.SliceStable(live, func(i, j int) bool {
		ui, vi := endpoints(live[i])
		uj, vj := endpoints(live[j])
		return m.IsTreeEdge(ui, vi) && !m.IsTreeEdge(uj, vj)
	})
	dels := make([]Edge, 0, delK)
	for i := 0; len(dels) < delK && i < len(live); i += 1 + r.Intn(3) {
		u, v := endpoints(live[i])
		dels = append(dels, Edge{U: u, V: v})
	}
	m.BatchDeleteEdges(dels)
	o.del(dels)
	checkAgainstKruskal(t, m, o, r)
}

func TestDifferentialVsKruskal(t *testing.T) {
	lowGrains(t)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 220
			m := New(n)
			m.SetWorkers(workers)
			if m.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", m.Workers(), workers)
			}
			o := newOracle(n)
			r := rng.New(uint64(5000 + workers))
			for round := 0; round < 16; round++ {
				// Rotate tie pressure: a near-unweighted regime (maxW=3)
				// exercises the key tie-breaks, a wide regime the weights.
				maxW := int64(3)
				if round%2 == 1 {
					maxW = 1 << 30
				}
				churn(t, m, o, r, 55, 35, maxW)
			}
		})
	}
}

func TestDifferentialVsKruskalChaos(t *testing.T) {
	lowGrains(t)
	parChaos = true
	t.Cleanup(func() { parChaos = false })
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 140
			m := New(n)
			m.SetWorkers(workers)
			o := newOracle(n)
			r := rng.New(uint64(6000 + workers))
			for round := 0; round < 8; round++ {
				churn(t, m, o, r, 45, 30, 5)
			}
		})
	}
}

// TestDeterministicAcrossWorkers pins a stronger property than oracle
// agreement: the structure's full evolution — tree set, totals, and even
// the cycle-max round counts — is identical at every worker count, because
// classification runs in batch order and both the swap and promotion
// choices reduce over the (weight, key) total order.
func TestDeterministicAcrossWorkers(t *testing.T) {
	lowGrains(t)
	const n = 180
	type snapshot struct {
		tree  string
		total int64
		comps int
	}
	var base []snapshot
	for wi, workers := range []int{1, 2, 4, 8} {
		m := New(n)
		m.SetWorkers(workers)
		o := newOracle(n)
		r := rng.New(7777) // identical workload at every count
		var snaps []snapshot
		for round := 0; round < 10; round++ {
			churn(t, m, o, r, 45, 30, 4)
			snaps = append(snaps, snapshot{
				tree:  fmt.Sprint(m.TreeEdges()),
				total: m.TotalWeight(),
				comps: m.ComponentCount(),
			})
		}
		if wi == 0 {
			base = snaps
			continue
		}
		for i := range snaps {
			if snaps[i] != base[i] {
				t.Fatalf("workers=%d round %d diverged from workers=1 structure", workers, i)
			}
		}
	}
}
