package msf

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/admit"
	"repro/internal/gen"
	"repro/internal/rng"
)

// grid returns the g×g grid graph as a weighted shape seed (the one
// standard shape internal/gen lacks): vertex (r,c) is r*g+c, unit weights
// replaced by the caller's churn.
func grid(g int) gen.Tree {
	var es []gen.Edge
	for r := 0; r < g; r++ {
		for c := 0; c < g; c++ {
			v := r*g + c
			if c+1 < g {
				es = append(es, gen.Edge{U: v, V: v + 1, W: 1})
			}
			if r+1 < g {
				es = append(es, gen.Edge{U: v, V: v + g, W: 1})
			}
		}
	}
	return gen.Tree{Name: "grid", N: g * g, Edges: es}
}

// propShapes are the seed shapes of the property suite: path (max
// diameter), star (max degree), grid (cycles everywhere), preferential
// attachment (heavy tail).
func propShapes() []gen.Tree {
	return []gen.Tree{
		gen.Path(64),
		gen.Star(64),
		grid(8),
		gen.PrefAttach(64, 99),
	}
}

// checkCycleProperty asserts the local characterization of the minimum
// spanning forest: for every non-tree edge, the heaviest tree edge on its
// endpoint path strictly precedes it in the (weight, key) order — no
// non-tree edge could improve the forest. One BatchPathMaxEdge answers all
// non-tree edges at once.
func checkCycleProperty(t *testing.T, m *BatchDynamicMSF, o *oracle) {
	t.Helper()
	type ntEdge struct {
		u, v int
		w    int64
	}
	var nts []ntEdge
	for k, w := range o.edges {
		u, v := endpoints(k)
		if !m.IsTreeEdge(u, v) {
			nts = append(nts, ntEdge{u, v, w})
		}
	}
	sort.Slice(nts, func(i, j int) bool { return admit.Key(nts[i].u, nts[i].v) < admit.Key(nts[j].u, nts[j].v) })
	if len(nts) == 0 {
		return
	}
	pairs := make([][2]int, len(nts))
	for i, e := range nts {
		pairs[i] = [2]int{e.u, e.v}
	}
	f := m.Forest()
	mw, mx, my, ok := f.BatchPathMaxEdge(pairs)
	bw, bok := f.BatchPathMax(pairs)
	for i, e := range nts {
		if !ok[i] || !bok[i] {
			t.Fatalf("non-tree edge (%d,%d) endpoints disconnected in forest", e.u, e.v)
		}
		if mw[i] != bw[i] {
			t.Fatalf("BatchPathMaxEdge weight %d disagrees with BatchPathMax %d for (%d,%d)",
				mw[i], bw[i], e.u, e.v)
		}
		if less(e.w, admit.Key(e.u, e.v), mw[i], admit.Key(mx[i], my[i])) {
			t.Fatalf("cycle property violated: non-tree (%d,%d,w=%d) precedes path max (%d,%d,w=%d)",
				e.u, e.v, e.w, mx[i], my[i], mw[i])
		}
	}
}

// TestCyclePropertyUnderChurn seeds each shape with random weights, then
// churns weighted edges through it, asserting after every batch both the
// cycle property (via the forest's own path aggregates) and the exact
// Kruskal total.
func TestCyclePropertyUnderChurn(t *testing.T) {
	lowGrains(t)
	for _, shape := range propShapes() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", shape.Name, workers), func(t *testing.T) {
				sh := gen.WithRandomWeights(shape, 1<<20, 31)
				m := New(sh.N)
				m.SetWorkers(workers)
				o := newOracle(sh.N)
				seed := make([]Edge, len(sh.Edges))
				for i, e := range sh.Edges {
					seed[i] = Edge{U: e.U, V: e.V, W: e.W}
				}
				m.BatchAddEdges(seed)
				o.add(seed)
				r := rng.New(uint64(800 + workers))
				checkCycleProperty(t, m, o)
				for round := 0; round < 6; round++ {
					maxW := int64(4) // heavy ties half the rounds
					if round%2 == 1 {
						maxW = 1 << 24
					}
					churn(t, m, o, r, 25, 18, maxW)
					checkCycleProperty(t, m, o)
				}
			})
		}
	}
}

// TestTotalWeightTracksKruskalOnShapes drives heavier churn (no per-batch
// cycle sweep, more rounds) and checks only the aggregate observables —
// the monotone bookkeeping of TotalWeight under swaps, promotions, and
// non-tree deletes across all shapes.
func TestTotalWeightTracksKruskalOnShapes(t *testing.T) {
	lowGrains(t)
	for _, shape := range propShapes() {
		t.Run(shape.Name, func(t *testing.T) {
			sh := gen.WithRandomWeights(shape, 1000, 67)
			m := New(sh.N)
			m.SetWorkers(4)
			o := newOracle(sh.N)
			seed := make([]Edge, len(sh.Edges))
			for i, e := range sh.Edges {
				seed[i] = Edge{U: e.U, V: e.V, W: e.W}
			}
			m.BatchAddEdges(seed)
			o.add(seed)
			r := rng.New(412)
			for round := 0; round < 12; round++ {
				churn(t, m, o, r, 30, 22, 1000)
			}
		})
	}
}

// TestSwapEviction pins the add-path swap end to end: a heavy tree edge is
// evicted by a lighter cycle-closing candidate and lands in the non-tree
// set, and the displaced weight leaves TotalWeight.
func TestSwapEviction(t *testing.T) {
	m := New(4)
	m.BatchAddEdges([]Edge{{0, 1, 10}, {1, 2, 20}, {2, 3, 30}})
	if m.TotalWeight() != 60 || m.TreeEdgeCount() != 3 {
		t.Fatalf("seed forest wrong: total=%d tree=%d", m.TotalWeight(), m.TreeEdgeCount())
	}
	// (0,3,w=5) closes the cycle whose max is (2,3,w=30): swap.
	m.BatchAddEdges([]Edge{{0, 3, 5}})
	if !m.IsTreeEdge(0, 3) || m.IsTreeEdge(2, 3) {
		t.Fatalf("swap did not evict the path maximum")
	}
	if m.TotalWeight() != 35 {
		t.Fatalf("TotalWeight = %d after swap, want 35", m.TotalWeight())
	}
	if m.NonTreeEdgeCount() != 1 || !m.HasEdge(2, 3) {
		t.Fatalf("evicted edge not retained as non-tree")
	}
	// One round settles both the swap and its evictee: the evicted edge is
	// not queried again.
	if st := m.PhaseStats(); st.Swaps != 1 || st.Rounds != 1 || st.Phases[phCycleMax].Items != 1 {
		t.Fatalf("PhaseStats swaps/rounds/cycle_max items = %d/%d/%d, want 1/1/1",
			st.Swaps, st.Rounds, st.Phases[phCycleMax].Items)
	}
	// Deleting the evicted non-tree edge is pure bookkeeping.
	m.BatchDeleteEdges([]Edge{{U: 2, V: 3}})
	if m.TotalWeight() != 35 || m.EdgeCount() != 3 {
		t.Fatalf("non-tree delete disturbed the forest")
	}
	// Deleting a tree edge promotes nothing (no crossing edge): split.
	m.BatchDeleteEdges([]Edge{{U: 1, V: 2}})
	if m.ComponentCount() != 2 || m.TotalWeight() != 15 {
		t.Fatalf("split wrong: comps=%d total=%d", m.ComponentCount(), m.TotalWeight())
	}
}

// TestDeferredWinner pins the conflict path of the swap rounds: two
// candidates of one batch both name the same tree edge as their path
// maximum, the lighter one evicts it, and only the deferred one is queried
// again, against the swapped forest, where it evicts a different edge.
func TestDeferredWinner(t *testing.T) {
	m := New(4)
	m.BatchAddEdges([]Edge{{0, 1, 10}, {1, 2, 30}, {2, 3, 10}})
	// (0,2,5) and (1,3,6) both close cycles through (1,2,30). (0,2) wins
	// it; (1,3)'s second query sees the path 1-0-2-3, whose maximum is
	// (2,3,10) (equal weights break toward the larger key).
	m.BatchAddEdges([]Edge{{0, 2, 5}, {1, 3, 6}})
	st := m.PhaseStats()
	if st.Rounds != 2 || st.Phases[phCycleMax].Items != 3 || st.Swaps != 2 {
		t.Fatalf("PhaseStats rounds/cycle_max items/swaps = %d/%d/%d, want 2/3/2",
			st.Rounds, st.Phases[phCycleMax].Items, st.Swaps)
	}
	want := []Edge{{0, 1, 10}, {0, 2, 5}, {1, 3, 6}}
	if got := m.TreeEdges(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("TreeEdges = %v, want %v", got, want)
	}
	if m.TotalWeight() != 21 {
		t.Fatalf("TotalWeight = %d, want 21", m.TotalWeight())
	}
	if m.NonTreeEdgeCount() != 2 || !m.HasEdge(1, 2) || !m.HasEdge(2, 3) {
		t.Fatalf("evicted edges not retained as non-tree")
	}
}

// TestDeletePromotesMinWeight pins the delete-path promotion rule: among
// several crossing replacement candidates the minimum-weight edge wins,
// not the minimum-key one (the regression distinguishing msf from conn;
// the cross-facade twin lives in the root package's tests).
func TestDeletePromotesMinWeight(t *testing.T) {
	m := New(4)
	// Spine 0-1-2-3, then two cycle-closing candidates across (1,2):
	// (0,3) has the smaller key, (1,3) the smaller weight.
	m.BatchAddEdges([]Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	m.BatchAddEdges([]Edge{{0, 3, 9}, {1, 3, 2}})
	if m.IsTreeEdge(0, 3) || m.IsTreeEdge(1, 3) {
		t.Fatalf("cycle-closing candidates should settle non-tree")
	}
	m.BatchDeleteEdges([]Edge{{U: 1, V: 2}})
	if !m.IsTreeEdge(1, 3) || m.IsTreeEdge(0, 3) {
		t.Fatalf("promotion chose min-key, want min-weight: tree(1,3)=%v tree(0,3)=%v",
			m.IsTreeEdge(1, 3), m.IsTreeEdge(0, 3))
	}
	if m.TotalWeight() != 4 {
		t.Fatalf("TotalWeight = %d after promotion, want 4", m.TotalWeight())
	}
	if st := m.PhaseStats(); st.Promotions != 1 {
		t.Fatalf("PhaseStats.Promotions = %d, want 1", st.Promotions)
	}
}

// TestEqualWeightsTieBreakByKey pins the uniqueness tie rule: with all
// weights equal the structure is exactly Kruskal by key — the smallest
// keys win tree membership.
func TestEqualWeightsTieBreakByKey(t *testing.T) {
	m := New(3)
	o := newOracle(3)
	batch := []Edge{{1, 2, 7}, {0, 2, 7}, {0, 1, 7}}
	m.BatchAddEdges(batch)
	o.add(batch)
	checkAgainstKruskal(t, m, o, rng.New(1))
	if !m.IsTreeEdge(0, 1) || !m.IsTreeEdge(0, 2) || m.IsTreeEdge(1, 2) {
		t.Fatalf("equal-weight tie-break wrong: want keys (0,1),(0,2) in tree")
	}
}

// TestPhaseStatsInvariants checks the telemetry contract: fixed phase
// table, batches/adds/deletes counted, phase times bounded by Total, and
// Accumulate merging linearly.
func TestPhaseStatsInvariants(t *testing.T) {
	m := New(64)
	var agg PhaseStats
	r := rng.New(55)
	o := newOracle(64)
	churn(t, m, o, r, 40, 20, 16)
	st := m.PhaseStats()
	if st.Batches != 1 || st.Deletes != 20 {
		t.Fatalf("last snapshot: batches=%d deletes=%d, want 1/20", st.Batches, st.Deletes)
	}
	if len(st.Phases) != int(numPhases) {
		t.Fatalf("phase table has %d entries, want %d", len(st.Phases), numPhases)
	}
	var sum int64
	for i, ph := range st.Phases {
		if ph.Name != phaseNames[i] {
			t.Fatalf("phase %d named %q, want %q", i, ph.Name, phaseNames[i])
		}
		if ph.Time < 0 || ph.Items < 0 {
			t.Fatalf("phase %q has negative telemetry", ph.Name)
		}
		sum += int64(ph.Time)
	}
	if sum > int64(st.Total) {
		t.Fatalf("phase times %d exceed Total %d", sum, st.Total)
	}
	agg.Accumulate(st)
	agg.Accumulate(st)
	if agg.Batches != 2 || agg.Deletes != 2*st.Deletes || agg.Total != 2*st.Total {
		t.Fatalf("Accumulate not linear")
	}
	// The snapshot is a deep copy: mutating it must not alias the
	// structure's buffers.
	st.Phases[0].Calls = 1 << 30
	if m.PhaseStats().Phases[0].Calls == 1<<30 {
		t.Fatalf("PhaseStats snapshot aliases internal buffers")
	}
}

// TestAdversarialBatchesPanicPreMutation drives the full invalid-batch
// matrix through both batch entry points and asserts each is refused with
// the shared check's typed error before any mutation: every observable
// equals its pre-call snapshot afterwards. (The name is kept so the test's
// ID stays stable.)
func TestAdversarialBatchesPanicPreMutation(t *testing.T) {
	build := func() *BatchDynamicMSF {
		m := New(6)
		m.BatchAddEdges([]Edge{{0, 1, 3}, {1, 2, 5}, {3, 4, 2}, {0, 2, 9}})
		return m
	}
	snap := func(m *BatchDynamicMSF) string {
		return fmt.Sprint(m.TreeEdges(), m.TotalWeight(), m.EdgeCount(), m.NonTreeEdgeCount(), m.ComponentCount())
	}
	cases := []struct {
		name string
		want error
		op   func(m *BatchDynamicMSF) error
	}{
		{"add self loop", admit.ErrSelfLoop, func(m *BatchDynamicMSF) error { return m.BatchAddEdges([]Edge{{5, 5, 1}}) }},
		{"add duplicate of present edge", admit.ErrDuplicateEdge, func(m *BatchDynamicMSF) error { return m.BatchAddEdges([]Edge{{4, 5, 1}, {0, 1, 7}}) }},
		{"add present edge reversed", admit.ErrDuplicateEdge, func(m *BatchDynamicMSF) error { return m.BatchAddEdges([]Edge{{1, 0, 7}}) }},
		{"add repeat within batch", admit.ErrDuplicateEdge, func(m *BatchDynamicMSF) error { return m.BatchAddEdges([]Edge{{4, 5, 1}, {4, 5, 2}}) }},
		{"add repeat within batch reversed", admit.ErrDuplicateEdge, func(m *BatchDynamicMSF) error { return m.BatchAddEdges([]Edge{{4, 5, 1}, {5, 4, 2}}) }},
		{"add vertex out of range", admit.ErrVertexRange, func(m *BatchDynamicMSF) error { return m.BatchAddEdges([]Edge{{0, 6, 1}}) }},
		{"add negative vertex", admit.ErrVertexRange, func(m *BatchDynamicMSF) error { return m.BatchAddEdges([]Edge{{-1, 2, 1}}) }},
		{"delete absent edge", admit.ErrAbsentCut, func(m *BatchDynamicMSF) error { return m.BatchDeleteEdges([]Edge{{U: 0, V: 3}}) }},
		{"delete self loop", admit.ErrSelfLoop, func(m *BatchDynamicMSF) error { return m.BatchDeleteEdges([]Edge{{U: 2, V: 2}}) }},
		{"delete repeat within batch", admit.ErrAbsentCut, func(m *BatchDynamicMSF) error {
			return m.BatchDeleteEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 0}})
		}},
		{"delete vertex out of range", admit.ErrVertexRange, func(m *BatchDynamicMSF) error { return m.BatchDeleteEdges([]Edge{{U: 0, V: 17}}) }},
		// The one whole-batch rejection the add matrix implies for cut+add
		// interplay: a delete of an edge added earlier in the same logical
		// step must be split by the caller — inside one batch it is absent.
		{"delete edge from same logical step", admit.ErrAbsentCut, func(m *BatchDynamicMSF) error {
			return m.BatchDeleteEdges([]Edge{{U: 0, V: 1}, {U: 4, V: 5}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := build()
			before := snap(m)
			if err := tc.op(m); !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(%v)", err, tc.want)
			}
			if after := snap(m); after != before {
				t.Fatalf("structure mutated before the rejection:\n before %s\n after  %s", before, after)
			}
			// The structure stays fully usable after the rejected batch.
			m.BatchAddEdges([]Edge{{4, 5, 1}})
			if !m.HasEdge(4, 5) {
				t.Fatalf("structure unusable after rejected batch")
			}
		})
	}
}

// TestEmptyBatchesAreNoOps pins the zero-length fast path.
func TestEmptyBatchesAreNoOps(t *testing.T) {
	m := New(4)
	m.BatchAddEdges([]Edge{{0, 1, 2}})
	before := fmt.Sprint(m.TreeEdges(), m.TotalWeight(), m.PhaseStats().Batches)
	m.BatchAddEdges(nil)
	m.BatchDeleteEdges(nil)
	if after := fmt.Sprint(m.TreeEdges(), m.TotalWeight(), m.PhaseStats().Batches); after != before {
		t.Fatalf("empty batch mutated state or stats")
	}
}

// TestSingleOpConveniences checks AddEdge/DeleteEdge and the scalar
// queries against their batch forms.
func TestSingleOpConveniences(t *testing.T) {
	m := New(5)
	m.AddEdge(0, 1, 4)
	m.AddEdge(1, 2, 6)
	if w, ok := m.EdgeWeight(2, 1); !ok || w != 6 {
		t.Fatalf("EdgeWeight(2,1) = %d,%v", w, ok)
	}
	if !m.Connected(0, 2) || m.Connected(0, 4) {
		t.Fatalf("Connected wrong after single adds")
	}
	if m.ComponentID(0) != m.ComponentID(2) || m.ComponentID(0) == m.ComponentID(4) {
		t.Fatalf("ComponentID inconsistent with Connected")
	}
	m.DeleteEdge(0, 1)
	if m.HasEdge(0, 1) || m.Connected(0, 2) {
		t.Fatalf("DeleteEdge did not remove the edge")
	}
	if w, ok := m.EdgeWeight(0, 4); w != 0 || ok || m.HasEdge(0, 9) || m.IsTreeEdge(-1, 0) {
		t.Fatalf("out-of-range/absent scalar queries must be false/zero")
	}
}

// TestSimplifyEdges checks self-loop and duplicate normalization with
// first-seen order and weight.
func TestSimplifyEdges(t *testing.T) {
	in := []Edge{{1, 2, 5}, {2, 2, 1}, {2, 1, 9}, {0, 1, 3}, {1, 2, 4}}
	got := SimplifyEdges(in)
	want := []Edge{{1, 2, 5}, {0, 1, 3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("SimplifyEdges = %v, want %v", got, want)
	}
}
