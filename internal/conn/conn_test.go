package conn

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/admit"
	"repro/internal/rng"
)

// oracle is the naive recompute baseline: the current edge set plus a
// fresh union-find scan per query round. Everything the connectivity
// structure answers incrementally, the oracle recomputes from scratch.
type oracle struct {
	n     int
	edges map[uint64][2]int
}

func newOracle(n int) *oracle {
	return &oracle{n: n, edges: make(map[uint64][2]int)}
}

func (o *oracle) add(es []Edge) {
	for _, e := range es {
		o.edges[admit.Key(e.U, e.V)] = [2]int{e.U, e.V}
	}
}

func (o *oracle) del(es []Edge) {
	for _, e := range es {
		delete(o.edges, admit.Key(e.U, e.V))
	}
}

// labels recomputes component labels with union-find over the edge set.
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
	for _, e := range o.edges {
		ru, rv := find(e[0]), find(e[1])
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

// lowGrains drops the fan-out grains so tiny test batches still exercise
// the parallel paths, restoring them on cleanup.
func lowGrains(t *testing.T) {
	t.Helper()
	old := classifyGrain
	classifyGrain = 2
	t.Cleanup(func() { classifyGrain = old })
}

// checkAgainstOracle compares the structure's every observable against the
// recompute oracle: edge counts, component count, and connectivity for a
// set of random pairs (batched and single-op).
func checkAgainstOracle(t *testing.T, g *BatchDynamicConnectivity, o *oracle, r *rng.SplitMix64) {
	t.Helper()
	if got, want := g.EdgeCount(), len(o.edges); got != want {
		t.Fatalf("EdgeCount = %d, oracle has %d edges", got, want)
	}
	if got, want := g.ComponentCount(), o.componentCount(); got != want {
		t.Fatalf("ComponentCount = %d, oracle says %d", got, want)
	}
	lab := o.labels()
	pairs := make([][2]int, 200)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(g.N()), r.Intn(g.N())}
	}
	got := g.BatchConnected(pairs)
	for i, p := range pairs {
		want := lab[p[0]] == lab[p[1]]
		if got[i] != want {
			t.Fatalf("BatchConnected(%d,%d) = %v, oracle says %v", p[0], p[1], got[i], want)
		}
		if single := g.Connected(p[0], p[1]); single != want {
			t.Fatalf("Connected(%d,%d) = %v, oracle says %v", p[0], p[1], single, want)
		}
	}
	// The spanning-forest invariant: tree edges + components partition n.
	if g.TreeEdgeCount()+g.ComponentCount() != g.N() {
		t.Fatalf("spanning forest invariant broken: tree=%d comps=%d n=%d",
			g.TreeEdgeCount(), g.ComponentCount(), g.N())
	}
}

// churn drives one differential round: an add batch of fresh random edges
// and a delete batch biased toward tree edges (to force replacement
// searches), each followed by a full oracle comparison.
func churn(t *testing.T, g *BatchDynamicConnectivity, o *oracle, r *rng.SplitMix64, addK, delK int) {
	t.Helper()
	n := g.N()
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
		adds = append(adds, Edge{u, v})
	}
	g.BatchAddEdges(adds)
	o.add(adds)
	checkAgainstOracle(t, g, o, r)

	if len(o.edges) < delK {
		return
	}
	live := make([][2]int, 0, len(o.edges))
	for _, e := range o.edges {
		live = append(live, e)
	}
	sort.Slice(live, func(i, j int) bool {
		return admit.Key(live[i][0], live[i][1]) < admit.Key(live[j][0], live[j][1])
	})
	// Tree edges first, so most delete batches sever the forest and drive
	// the replacement search; the tail mixes in non-tree deletes.
	sort.SliceStable(live, func(i, j int) bool {
		return g.IsTreeEdge(live[i][0], live[i][1]) && !g.IsTreeEdge(live[j][0], live[j][1])
	})
	dels := make([]Edge, 0, delK)
	for i := 0; len(dels) < delK && i < len(live); i += 1 + r.Intn(3) {
		dels = append(dels, Edge{live[i][0], live[i][1]})
	}
	g.BatchDeleteEdges(dels)
	o.del(dels)
	checkAgainstOracle(t, g, o, r)
}

func TestDifferentialVsOracle(t *testing.T) {
	lowGrains(t)
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 250
			g := New(n)
			g.SetWorkers(workers)
			if g.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", g.Workers(), workers)
			}
			o := newOracle(n)
			r := rng.New(uint64(1000 + workers))
			for round := 0; round < 20; round++ {
				churn(t, g, o, r, 60, 40)
			}
		})
	}
}

func TestDifferentialVsOracleChaos(t *testing.T) {
	lowGrains(t)
	parChaos = true
	t.Cleanup(func() { parChaos = false })
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 150
			g := New(n)
			g.SetWorkers(workers)
			o := newOracle(n)
			r := rng.New(uint64(2000 + workers))
			for round := 0; round < 10; round++ {
				churn(t, g, o, r, 50, 35)
			}
		})
	}
}

// TestDeterministicAcrossWorkers pins a stronger property than oracle
// agreement: the structure itself (tree/non-tree split included) evolves
// identically at every worker count, because classification runs in batch
// order and promotions reduce over minimum edge keys.
func TestDeterministicAcrossWorkers(t *testing.T) {
	lowGrains(t)
	const n = 200
	type snapshot struct {
		tree    []uint64
		nonTree int
		comps   int
	}
	var base []snapshot
	for wi, workers := range []int{1, 2, 4, 8} {
		g := New(n)
		g.SetWorkers(workers)
		o := newOracle(n)
		r := rng.New(4242) // identical workload at every count
		var snaps []snapshot
		for round := 0; round < 12; round++ {
			churn(t, g, o, r, 50, 35)
			var tree []uint64
			for k, e := range o.edges {
				if g.IsTreeEdge(e[0], e[1]) {
					tree = append(tree, k)
				}
			}
			sort.Slice(tree, func(i, j int) bool { return tree[i] < tree[j] })
			snaps = append(snaps, snapshot{tree: tree, nonTree: g.NonTreeEdgeCount(), comps: g.ComponentCount()})
		}
		if wi == 0 {
			base = snaps
			continue
		}
		for i := range snaps {
			if snaps[i].nonTree != base[i].nonTree || snaps[i].comps != base[i].comps ||
				fmt.Sprint(snaps[i].tree) != fmt.Sprint(base[i].tree) {
				t.Fatalf("workers=%d round %d diverged from workers=1 structure", workers, i)
			}
		}
	}
}

// TestReplacementPromotion walks the canonical cycle example end to end:
// the edge closing a cycle becomes non-tree, and cutting a tree edge of
// the cycle promotes it back.
func TestReplacementPromotion(t *testing.T) {
	g := New(3)
	g.BatchAddEdges([]Edge{{0, 1}, {1, 2}, {2, 0}})
	if g.TreeEdgeCount() != 2 || g.NonTreeEdgeCount() != 1 {
		t.Fatalf("triangle: tree=%d nontree=%d, want 2/1", g.TreeEdgeCount(), g.NonTreeEdgeCount())
	}
	if g.ComponentCount() != 1 {
		t.Fatalf("triangle has %d components, want 1", g.ComponentCount())
	}
	// Find a tree edge of the cycle and delete it: connectivity must
	// survive via promotion of the non-tree edge.
	var cut Edge
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 0}} {
		if g.IsTreeEdge(e.U, e.V) {
			cut = e
			break
		}
	}
	g.BatchDeleteEdges([]Edge{cut})
	if !g.Connected(0, 2) || !g.Connected(0, 1) {
		t.Fatalf("triangle lost connectivity after deleting tree edge (%d,%d)", cut.U, cut.V)
	}
	if g.NonTreeEdgeCount() != 0 || g.TreeEdgeCount() != 2 {
		t.Fatalf("promotion bookkeeping wrong: tree=%d nontree=%d, want 2/0",
			g.TreeEdgeCount(), g.NonTreeEdgeCount())
	}
	st := g.PhaseStats()
	if st.Rounds < 1 {
		t.Fatalf("replacement search ran %d rounds, want >= 1", st.Rounds)
	}
	var promoted int64
	for _, ph := range st.Phases {
		if ph.Name == "promote" {
			promoted = ph.Items
		}
	}
	if promoted != 1 {
		t.Fatalf("promote phase recorded %d items, want 1", promoted)
	}
}

// TestPhaseStatsInvariants checks the telemetry contract: per-batch reset,
// batch shape, phase completeness, and phase times bounded by the total.
func TestPhaseStatsInvariants(t *testing.T) {
	g := New(50)
	r := rng.New(7)
	var adds []Edge
	for u := 1; u < 50; u++ {
		adds = append(adds, Edge{r.Intn(u), u})
	}
	g.BatchAddEdges(adds)
	st := g.PhaseStats()
	if st.Batches != 1 || st.Adds != int64(len(adds)) || st.Deletes != 0 {
		t.Fatalf("add batch stats shape wrong: %+v", st)
	}
	want := []string{"classify", "forest_cut", "search", "push_down", "promote", "forest_link", "nontree"}
	if st.Depth != DefaultLevels(50) {
		t.Fatalf("add batch depth %d, want %d", st.Depth, DefaultLevels(50))
	}
	if len(st.Phases) != len(want) {
		t.Fatalf("got %d phases, want %d", len(st.Phases), len(want))
	}
	var sum int64
	for i, ph := range st.Phases {
		if ph.Name != want[i] {
			t.Fatalf("phase %d is %q, want %q", i, ph.Name, want[i])
		}
		sum += int64(ph.Time)
	}
	if sum > int64(st.Total) {
		t.Fatalf("phase times sum to %d > total %d", sum, int64(st.Total))
	}
	// A delete batch resets the snapshot.
	g.BatchDeleteEdges(adds[:3])
	st = g.PhaseStats()
	if st.Batches != 1 || st.Adds != 0 || st.Deletes != 3 {
		t.Fatalf("delete batch stats not reset: %+v", st)
	}
	// Accumulate aggregates batches.
	var agg PhaseStats
	agg.Accumulate(g.PhaseStats())
	g.BatchAddEdges(adds[:3])
	agg.Accumulate(g.PhaseStats())
	if agg.Batches != 2 || agg.Adds != 3 || agg.Deletes != 3 {
		t.Fatalf("Accumulate wrong: %+v", agg)
	}
}

// graphSnapshot captures every observable of the structure, for the
// unmutated-after-panic assertions.
type graphSnapshot struct {
	edgeCount, treeCount, nonTreeCount, comps int
	connRow                                   []bool
}

func snap(g *BatchDynamicConnectivity) graphSnapshot {
	s := graphSnapshot{
		edgeCount:    g.EdgeCount(),
		treeCount:    g.TreeEdgeCount(),
		nonTreeCount: g.NonTreeEdgeCount(),
		comps:        g.ComponentCount(),
	}
	for v := 1; v < g.N(); v++ {
		s.connRow = append(s.connRow, g.Connected(0, v))
	}
	return s
}

func (s graphSnapshot) equal(o graphSnapshot) bool {
	if s.edgeCount != o.edgeCount || s.treeCount != o.treeCount ||
		s.nonTreeCount != o.nonTreeCount || s.comps != o.comps {
		return false
	}
	for i := range s.connRow {
		if s.connRow[i] != o.connRow[i] {
			return false
		}
	}
	return true
}

// mustRejectUnmutated asserts that fn's batch is refused with an error
// matching want (errors.Is) and that the structure is byte-for-byte
// observably unchanged — the pre-mutation contract of the shared check.
func mustRejectUnmutated(t *testing.T, g *BatchDynamicConnectivity, want error, fn func() error) {
	t.Helper()
	before := snap(g)
	err := fn()
	if !errors.Is(err, want) {
		t.Fatalf("error %v, want errors.Is(%v)", err, want)
	}
	if !before.equal(snap(g)) {
		t.Fatalf("structure mutated across rejected batch (%v)", err)
	}
}

// TestAdversarialBatchesPanicPreMutation drives the invalid-batch matrix
// through both batch entry points at two worker counts: each batch is
// refused with the shared check's typed error and changes nothing. (The
// name is kept so the test's ID stays stable.)
func TestAdversarialBatchesPanicPreMutation(t *testing.T) {
	lowGrains(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := New(10)
			g.SetWorkers(workers)
			// Path 0-1-2-3-4 plus non-tree edges (0,2) and (1,3).
			g.BatchAddEdges([]Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 3}})

			mustRejectUnmutated(t, g, admit.ErrSelfLoop, func() error {
				return g.BatchAddEdges([]Edge{{5, 6}, {5, 5}})
			})
			mustRejectUnmutated(t, g, admit.ErrDuplicateEdge, func() error {
				return g.BatchAddEdges([]Edge{{5, 6}, {5, 6}})
			})
			mustRejectUnmutated(t, g, admit.ErrDuplicateEdge, func() error {
				return g.BatchAddEdges([]Edge{{5, 6}, {6, 5}}) // reversed orientation
			})
			mustRejectUnmutated(t, g, admit.ErrDuplicateEdge, func() error {
				return g.BatchAddEdges([]Edge{{5, 6}, {0, 1}}) // present as tree edge
			})
			mustRejectUnmutated(t, g, admit.ErrDuplicateEdge, func() error {
				return g.BatchAddEdges([]Edge{{5, 6}, {2, 0}}) // present as non-tree edge, reversed
			})
			mustRejectUnmutated(t, g, admit.ErrVertexRange, func() error {
				return g.BatchAddEdges([]Edge{{5, 6}, {3, 99}})
			})
			mustRejectUnmutated(t, g, admit.ErrSelfLoop, func() error {
				return g.BatchDeleteEdges([]Edge{{0, 1}, {2, 2}})
			})
			mustRejectUnmutated(t, g, admit.ErrAbsentCut, func() error {
				return g.BatchDeleteEdges([]Edge{{0, 1}, {1, 0}})
			})
			mustRejectUnmutated(t, g, admit.ErrAbsentCut, func() error {
				return g.BatchDeleteEdges([]Edge{{0, 1}, {0, 4}})
			})
			mustRejectUnmutated(t, g, admit.ErrVertexRange, func() error {
				return g.BatchDeleteEdges([]Edge{{0, 1}, {-1, 2}})
			})

			// The structure still behaves after all the rejected batches.
			g.BatchDeleteEdges([]Edge{{1, 2}})
			if !g.Connected(0, 3) {
				t.Fatal("replacement search broken after rejected batches")
			}
		})
	}
}

// TestEmptyBatchesAreNoOps pins the trivial contract edge.
func TestEmptyBatchesAreNoOps(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	before := snap(g)
	g.BatchAddEdges(nil)
	g.BatchDeleteEdges(nil)
	if !before.equal(snap(g)) {
		t.Fatal("empty batch mutated the structure")
	}
}

// TestSingleOpConveniences covers AddEdge/DeleteEdge round trips.
func TestSingleOpConveniences(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2) // closes a cycle: non-tree
	if !g.HasEdge(2, 0) || g.NonTreeEdgeCount() != 1 {
		t.Fatalf("cycle edge not recorded as non-tree (nontree=%d)", g.NonTreeEdgeCount())
	}
	g.DeleteEdge(0, 1)
	if !g.Connected(0, 1) {
		t.Fatal("DeleteEdge of tree edge did not promote the replacement")
	}
	g.DeleteEdge(0, 2)
	g.DeleteEdge(1, 2)
	if g.Connected(0, 1) || g.EdgeCount() != 0 || g.ComponentCount() != 4 {
		t.Fatalf("teardown wrong: edges=%d comps=%d", g.EdgeCount(), g.ComponentCount())
	}
}

// TestShatterAndReconnect deletes a whole spanning star in one batch on a
// graph dense enough that connectivity survives entirely via promotions.
func TestShatterAndReconnect(t *testing.T) {
	lowGrains(t)
	const n = 40
	g := New(n)
	g.SetWorkers(4)
	o := newOracle(n)
	var star, extra []Edge
	for v := 1; v < n; v++ {
		star = append(star, Edge{0, v})
	}
	for v := 1; v < n-1; v++ {
		extra = append(extra, Edge{v, v + 1}) // a path among the leaves
	}
	g.BatchAddEdges(star)
	o.add(star)
	g.BatchAddEdges(extra)
	o.add(extra)
	// Every extra edge closed a cycle.
	if g.NonTreeEdgeCount() != len(extra) {
		t.Fatalf("nontree=%d, want %d", g.NonTreeEdgeCount(), len(extra))
	}
	g.BatchDeleteEdges(star)
	o.del(star)
	r := rng.New(99)
	checkAgainstOracle(t, g, o, r)
	if g.ComponentCount() != 2 { // vertex 0 isolated; 1..n-1 path survives
		t.Fatalf("components=%d, want 2", g.ComponentCount())
	}
}

// TestSearchGroupsByPrebatchComponent pins the per-group largest-piece
// skip: cutting one tree edge in each of two separate dense components
// must cost exactly one sweep per group (the smaller piece), never a
// sweep of either component's big side.
func TestSearchGroupsByPrebatchComponent(t *testing.T) {
	const cyc = 100
	g := New(3 + cyc)
	// Component A: triangle 0-1-2 (one non-tree edge).
	g.BatchAddEdges([]Edge{{0, 1}, {1, 2}, {2, 0}})
	// Component B: a cycle over vertices 3..102 (one non-tree edge).
	var ring []Edge
	for i := 0; i < cyc; i++ {
		ring = append(ring, Edge{3 + i, 3 + (i+1)%cyc})
	}
	g.BatchAddEdges(ring)
	if g.ComponentCount() != 2 || g.NonTreeEdgeCount() != 2 {
		t.Fatalf("setup wrong: comps=%d nontree=%d", g.ComponentCount(), g.NonTreeEdgeCount())
	}
	// One delete batch cutting a tree edge in each component.
	var cuts []Edge
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 0}} {
		if g.IsTreeEdge(e.U, e.V) {
			cuts = append(cuts, e)
			break
		}
	}
	for _, e := range ring {
		if g.IsTreeEdge(e.U, e.V) {
			cuts = append(cuts, e)
			break
		}
	}
	g.BatchDeleteEdges(cuts)
	if g.ComponentCount() != 2 {
		t.Fatalf("promotions failed: comps=%d, want 2", g.ComponentCount())
	}
	st := g.PhaseStats()
	var sweeps, promoted int64
	var scanned int64
	for _, ph := range st.Phases {
		switch ph.Name {
		case "search":
			sweeps, scanned = int64(ph.Calls), ph.Items
		case "promote":
			promoted = ph.Items
		}
	}
	if sweeps != 2 || promoted != 2 {
		t.Fatalf("per-group search ran %d sweeps / %d promotions, want 2/2", sweeps, promoted)
	}
	// Each sweep scanned only the smaller piece's incidence: the triangle
	// piece sees 1 non-tree edge end, the ring's half sees 1. A big-side
	// sweep would have scanned far more.
	if scanned > 4 {
		t.Fatalf("search scanned %d incidences, want <= 4 (big side must not be swept)", scanned)
	}
}

// TestSimplifyEdges pins the shared dedup helper: self loops dropped,
// both orientations deduplicated, first-seen order kept, and the output
// always valid as one BatchAddEdges batch.
func TestSimplifyEdges(t *testing.T) {
	raw := [][2]int{{1, 2}, {3, 3}, {2, 1}, {0, 4}, {1, 2}, {4, 0}, {2, 3}}
	got := SimplifyEdges(raw)
	want := []Edge{{1, 2}, {0, 4}, {2, 3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SimplifyEdges = %v, want %v", got, want)
	}
	g := New(5)
	g.BatchAddEdges(got) // must not panic: the batch contract holds
	if g.EdgeCount() != len(want) {
		t.Fatalf("batch applied %d edges, want %d", g.EdgeCount(), len(want))
	}
}
