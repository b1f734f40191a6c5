package ufo

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/refforest"
	"repro/internal/rng"
)

// TestSharedQueriesWorkerSweep pins shared-traversal == independent-walk
// == single-op == oracle across explicit worker counts 1/2/4/8 (the
// differential harness checks every batch-query kind after every update
// batch). Unit query grain makes every count actually fan out.
func TestSharedQueriesWorkerSweep(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, mode := range []QueryMode{QueryIndependent, QueryShared} {
			n := 250
			f := New(n)
			f.SetWorkers(workers)
			f.SetQueryMode(mode)
			f.queryGrain = 1
			ref := refforest.New(n)
			r := rng.New(90 + uint64(workers))
			for v := 0; v < n; v++ {
				val := int64(r.Intn(500))
				f.SetVertexValue(v, val)
				ref.SetVertexValue(v, val)
			}
			var live [][2]int
			for round := 0; round < 8; round++ {
				var links []Edge
				var cuts [][2]int
				for i, nCut := 0, r.Intn(12); i < nCut && len(live) > 0; i++ {
					j := r.Intn(len(live))
					cuts = append(cuts, live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				for _, c := range cuts {
					ref.Cut(c[0], c[1])
				}
				for i, nLink := 0, r.Intn(35); i < nLink; i++ {
					u, v := r.Intn(n), r.Intn(n)
					if u != v && !ref.Connected(u, v) {
						w := int64(1 + r.Intn(30))
						ref.Link(u, v, w)
						links = append(links, Edge{u, v, w})
						live = append(live, [2]int{u, v})
					}
				}
				f.BatchCut(cuts)
				f.BatchLink(links)
				mustValidate(t, f, "shared-query worker sweep")
				checkBatchQueriesAgainstSingleOps(t, "sweep", f, ref, r, live, 30)
			}
		}
	}
}

// TestSharedVsIndependentIdenticalResults compares the two forced modes
// head to head on the same skewed (hot-vertex-heavy) batches, where the
// shared walker's memo actually fires: every duplicate endpoint rides a
// memoized chain and must still produce bit-identical answers.
func TestSharedVsIndependentIdenticalResults(t *testing.T) {
	n := 500
	f := New(n)
	tr := gen.Shuffled(gen.WithRandomWeights(gen.PrefAttach(n, 11), 40, 12), 13)
	var edges []Edge
	for _, e := range tr.Edges {
		edges = append(edges, Edge{e.U, e.V, e.W})
	}
	f.BatchLink(edges)
	r := rng.New(14)
	hot := make([]int, 8)
	for i := range hot {
		hot[i] = r.Intn(n)
	}
	q := 400
	pairs := make([][2]int, q)
	triples := make([][3]int, q)
	pick := func() int {
		if r.Intn(10) < 8 {
			return hot[r.Intn(len(hot))]
		}
		return r.Intn(n)
	}
	for i := 0; i < q; i++ {
		pairs[i] = [2]int{pick(), pick()}
		triples[i] = [3]int{pick(), pick(), pick()}
	}
	f.SetQueryMode(QueryIndependent)
	ic := f.BatchConnected(pairs)
	is, isOK := f.BatchPathSum(pairs)
	im, imOK := f.BatchPathMax(pairs)
	ih, ihOK := f.BatchPathHops(pairs)
	il, ilOK := f.BatchLCA(triples)
	f.SetQueryMode(QueryShared)
	sc := f.BatchConnected(pairs)
	ss, ssOK := f.BatchPathSum(pairs)
	sm, smOK := f.BatchPathMax(pairs)
	sh, shOK := f.BatchPathHops(pairs)
	sl, slOK := f.BatchLCA(triples)
	for i := 0; i < q; i++ {
		if ic[i] != sc[i] {
			t.Fatalf("Connected[%d] independent %v shared %v", i, ic[i], sc[i])
		}
		if is[i] != ss[i] || isOK[i] != ssOK[i] {
			t.Fatalf("PathSum[%d] independent %d,%v shared %d,%v", i, is[i], isOK[i], ss[i], ssOK[i])
		}
		if im[i] != sm[i] || imOK[i] != smOK[i] {
			t.Fatalf("PathMax[%d] independent %d,%v shared %d,%v", i, im[i], imOK[i], sm[i], smOK[i])
		}
		if ih[i] != sh[i] || ihOK[i] != shOK[i] {
			t.Fatalf("PathHops[%d] independent %d,%v shared %d,%v", i, ih[i], ihOK[i], sh[i], shOK[i])
		}
		if il[i] != sl[i] || ilOK[i] != slOK[i] {
			t.Fatalf("LCA[%d] independent %d,%v shared %d,%v", i, il[i], ilOK[i], sl[i], slOK[i])
		}
	}
	st := f.QueryStats()
	if st.SharedBatches != 5 {
		t.Fatalf("SharedBatches = %d, want 5 forced-shared batches", st.SharedBatches)
	}
	if st.SharedMemoHits == 0 {
		t.Fatal("skewed shared batches recorded zero memo hits")
	}
}

// TestQueryAutoSelection checks the QueryAuto heuristic and its telemetry:
// small or all-distinct batches stay independent, large duplicate-heavy
// batches go shared, and the counters attribute each correctly.
func TestQueryAutoSelection(t *testing.T) {
	n := 400
	f := New(n)
	tr := gen.Path(n)
	var edges []Edge
	for _, e := range tr.Edges {
		edges = append(edges, Edge{e.U, e.V, 1})
	}
	f.BatchLink(edges)

	// Tiny batch: below sharedMinBatch, always independent.
	f.BatchConnected([][2]int{{0, 1}, {2, 3}})
	if st := f.QueryStats(); st.IndependentBatches != 1 || st.SharedBatches != 0 {
		t.Fatalf("tiny batch: stats %+v, want 1 independent batch", st)
	}

	// Large all-distinct batch: no duplication, stays independent.
	distinct := make([][2]int, n/2)
	for i := range distinct {
		distinct[i] = [2]int{2 * i, 2*i + 1}
	}
	f.BatchConnected(distinct)
	if st := f.QueryStats(); st.IndependentBatches != 2 || st.SharedBatches != 0 {
		t.Fatalf("distinct batch: stats %+v, want 2 independent batches", st)
	}

	// Large skewed batch: every query names vertex 0, goes shared.
	skewed := make([][2]int, 200)
	for i := range skewed {
		skewed[i] = [2]int{0, (i * 7) % n}
	}
	f.BatchConnected(skewed)
	st := f.QueryStats()
	if st.SharedBatches != 1 {
		t.Fatalf("skewed batch: stats %+v, want 1 shared batch", st)
	}
	if st.SharedQueries != 200 {
		t.Fatalf("SharedQueries = %d, want 200", st.SharedQueries)
	}
	if st.Batches != 3 || st.Queries != int64(2+len(distinct)+200) {
		t.Fatalf("totals %+v", st)
	}
	// The path forest is one component: the root memo must cap cluster
	// visits at roughly the unique clusters touched, far below q*height.
	if h := int64(f.Height(0)); st.SharedClusterVisits > 210*(h+1) {
		t.Fatalf("SharedClusterVisits = %d for height %d: memo not firing", st.SharedClusterVisits, h)
	}

	// Forced modes override the heuristic in both directions.
	f.SetQueryMode(QueryShared)
	f.BatchConnected([][2]int{{0, 1}})
	if got := f.QueryStats().SharedBatches; got != 2 {
		t.Fatalf("forced shared: SharedBatches = %d, want 2", got)
	}
	f.SetQueryMode(QueryIndependent)
	f.BatchConnected(skewed)
	if got := f.QueryStats().SharedBatches; got != 2 {
		t.Fatalf("forced independent ran shared anyway (%d)", got)
	}
	if f.QueryMode() != QueryIndependent {
		t.Fatalf("QueryMode = %v, want QueryIndependent", f.QueryMode())
	}
}

// TestPackedParentColumnValidate checks that Validate catches a packed
// parent column entry drifting from its hot row — the mirror invariant
// every parent write must maintain.
func TestPackedParentColumnValidate(t *testing.T) {
	n := 64
	f := New(n)
	var edges []Edge
	for _, e := range gen.PrefAttach(n, 21).Edges {
		edges = append(edges, Edge{e.U, e.V, 1})
	}
	f.BatchLink(edges)
	mustValidate(t, f, "pre-corruption")
	saved := f.a.par[3]
	f.a.par[3] = 7 // arbitrary wrong handle
	err := f.Validate()
	f.a.par[3] = saved
	if err == nil {
		t.Fatal("Validate missed a corrupted packed parent column entry")
	}
	if !strings.Contains(err.Error(), "packed parent column") {
		t.Fatalf("unexpected validation error: %v", err)
	}
	mustValidate(t, f, "post-restore")
}

// TestOverflowShapeValidate checks that Validate catches an adjacency
// overflow table beside free inline slots, or an empty one — the shape
// edgeSet.remove/refill maintain and the query walk's inline reads rely on.
func TestOverflowShapeValidate(t *testing.T) {
	// Vertex 0 is a star center whose leaf overflows; vertex 40 has
	// exactly four edges, so its inline slots are full with no table.
	f := New(44)
	var edges []Edge
	for v := 1; v <= 40; v++ {
		edges = append(edges, Edge{0, v, 1})
	}
	for v := 41; v <= 43; v++ {
		edges = append(edges, Edge{40, v, 1})
	}
	f.BatchLink(edges)
	mustValidate(t, f, "pre-corruption")
	s := &f.a.at(f.leaf(0)).adj
	if s.ov == nil {
		t.Fatal("star center should hold an overflow table")
	}
	for _, c := range []struct {
		name    string
		corrupt func() func()
	}{
		{"free inline slot", func() func() {
			// Move the last inline entry into the table: the edge set
			// keeps its contents, only the shape breaks.
			e := s.arr[3]
			s.arr[3], s.n = EdgeRef{}, 3
			s.ov.put(e)
			return func() {
				s.ov.remove(e.key)
				s.arr[3], s.n = e, 4
			}
		}},
		{"empty table", func() func() {
			full := &f.a.at(f.leaf(40)).adj
			full.ov = newOvTable()
			return func() {
				putOvTable(full.ov)
				full.ov = nil
			}
		}},
	} {
		restore := c.corrupt()
		err := f.Validate()
		restore()
		if err == nil || !strings.Contains(err.Error(), "overflow table") {
			t.Fatalf("%s: Validate returned %v, want an overflow-table error", c.name, err)
		}
		mustValidate(t, f, "post-restore "+c.name)
	}
}

// TestSharedQueriesAfterChurn runs the shared mode against heavy arena
// recycling (slots freed and reused across batches) to make sure the
// epoch-stamped cluster memo never reads a stale root through a recycled
// handle.
func TestSharedQueriesAfterChurn(t *testing.T) {
	n := 200
	f := New(n)
	f.SetQueryMode(QueryShared)
	ref := refforest.New(n)
	r := rng.New(31)
	var live [][2]int
	for round := 0; round < 12; round++ {
		var cuts [][2]int
		for i := 0; i < len(live)/2; i++ {
			j := r.Intn(len(live))
			cuts = append(cuts, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, c := range cuts {
			ref.Cut(c[0], c[1])
		}
		var links []Edge
		for i := 0; i < 60; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !ref.Connected(u, v) {
				ref.Link(u, v, 1)
				links = append(links, Edge{u, v, 1})
				live = append(live, [2]int{u, v})
			}
		}
		f.BatchCut(cuts)
		f.BatchLink(links)
		pairs := make([][2]int, 80)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
		}
		got := f.BatchConnected(pairs)
		for i, p := range pairs {
			if want := ref.Connected(p[0], p[1]); got[i] != want {
				t.Fatalf("round %d: Connected(%d,%d) = %v, want %v", round, p[0], p[1], got[i], want)
			}
		}
	}
	mustValidate(t, f, "post-churn")
}
