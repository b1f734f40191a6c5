package ufo

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/refforest"
	"repro/internal/rng"
)

// forceParallelQueries drives the parallel batch-query fan-out on tiny
// batches (oversubscribed workers + unit grain), mirroring forceParallel
// for the update engine. The grain is a per-forest field, so parallel
// tests cannot race on it.
func forceParallelQueries(t *testing.T, f *Forest) {
	t.Helper()
	forceParallel(t, f)
	f.queryGrain = 1
}

// checkBatchQueriesAgainstSingleOps asserts that every batch query result
// equals its single-op twin and the refforest oracle on random pairs and
// triples plus a sample of live edges (for subtree queries).
func checkBatchQueriesAgainstSingleOps(t *testing.T, ctx string, f *Forest, ref *refforest.Forest, r *rng.SplitMix64, live [][2]int, q int) {
	t.Helper()
	n := f.N()
	pairs := make([][2]int, q)
	triples := make([][3]int, q)
	for i := 0; i < q; i++ {
		pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
		triples[i] = [3]int{r.Intn(n), r.Intn(n), r.Intn(n)}
	}
	conn := f.BatchConnected(pairs)
	sums, sumOK := f.BatchPathSum(pairs)
	maxs, maxOK := f.BatchPathMax(pairs)
	hops, hopOK := f.BatchPathHops(pairs)
	lcas, lcaOK := f.BatchLCA(triples)
	for i := 0; i < q; i++ {
		u, v := pairs[i][0], pairs[i][1]
		if want := ref.Connected(u, v); conn[i] != want {
			t.Fatalf("%s: BatchConnected[%d]=(%d,%d) = %v, want %v", ctx, i, u, v, conn[i], want)
		}
		if got, ok := f.PathSum(u, v); got != sums[i] || ok != sumOK[i] {
			t.Fatalf("%s: BatchPathSum[%d] = %d,%v, single-op %d,%v", ctx, i, sums[i], sumOK[i], got, ok)
		}
		if want, wok := ref.PathSum(u, v); sumOK[i] != wok || (wok && sums[i] != want) {
			t.Fatalf("%s: BatchPathSum[%d]=(%d,%d) = %d,%v, oracle %d,%v", ctx, i, u, v, sums[i], sumOK[i], want, wok)
		}
		if got, ok := f.PathMax(u, v); got != maxs[i] || ok != maxOK[i] {
			t.Fatalf("%s: BatchPathMax[%d] = %d,%v, single-op %d,%v", ctx, i, maxs[i], maxOK[i], got, ok)
		}
		if want, wok := ref.PathMax(u, v); maxOK[i] != wok || (wok && maxs[i] != want) {
			t.Fatalf("%s: BatchPathMax[%d]=(%d,%d) = %d,%v, oracle %d,%v", ctx, i, u, v, maxs[i], maxOK[i], want, wok)
		}
		if got, ok := f.PathHops(u, v); got != hops[i] || ok != hopOK[i] {
			t.Fatalf("%s: BatchPathHops[%d] = %d,%v, single-op %d,%v", ctx, i, hops[i], hopOK[i], got, ok)
		}
		if ref.Connected(u, v) {
			if want := len(ref.Path(u, v)) - 1; !hopOK[i] || hops[i] != want {
				t.Fatalf("%s: BatchPathHops[%d]=(%d,%d) = %d,%v, oracle %d", ctx, i, u, v, hops[i], hopOK[i], want)
			}
		}
		a, b, root := triples[i][0], triples[i][1], triples[i][2]
		if got, ok := f.LCA(a, b, root); got != lcas[i] || ok != lcaOK[i] {
			t.Fatalf("%s: BatchLCA[%d] = %d,%v, single-op %d,%v", ctx, i, lcas[i], lcaOK[i], got, ok)
		}
		if want, wok := ref.LCA(a, b, root); lcaOK[i] != wok || (wok && lcas[i] != want) {
			t.Fatalf("%s: BatchLCA[%d]=(%d,%d;%d) = %d,%v, oracle %d,%v", ctx, i, a, b, root, lcas[i], lcaOK[i], want, wok)
		}
	}
	if len(live) > 0 {
		sub := make([][2]int, 0, q/2+1)
		for i := 0; i < q/2+1; i++ {
			e := live[r.Intn(len(live))]
			if r.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			sub = append(sub, e)
		}
		got := f.BatchSubtreeSum(sub)
		for i, e := range sub {
			if single := f.SubtreeSum(e[0], e[1]); got[i] != single {
				t.Fatalf("%s: BatchSubtreeSum[%d] = %d, single-op %d", ctx, i, got[i], single)
			}
			if want := ref.SubtreeSum(e[0], e[1]); got[i] != want {
				t.Fatalf("%s: BatchSubtreeSum[%d]=(%d,%d) = %d, oracle %d", ctx, i, e[0], e[1], got[i], want)
			}
		}
	}
}

// runBatchQueryDifferential applies random mixed batch updates and, after
// every batch, validates every batch-query kind against the single-op
// queries and the oracle. mode pins the batch walk mode: forcing
// QueryShared and QueryIndependent through the same harness pins
// shared-traversal == independent-walk == single-op == oracle.
func runBatchQueryDifferential(t *testing.T, parallelMode bool, mode QueryMode, rounds, q int, seed uint64) {
	n := 300
	f := New(n)
	f.SetQueryMode(mode)
	if parallelMode {
		forceParallelQueries(t, f)
	}
	ref := refforest.New(n)
	r := rng.New(seed)
	for v := 0; v < n; v++ {
		val := int64(r.Intn(500))
		f.SetVertexValue(v, val)
		ref.SetVertexValue(v, val)
	}
	var live [][2]int
	for round := 0; round < rounds; round++ {
		var links []Edge
		var cuts [][2]int
		for i, nCut := 0, r.Intn(18); i < nCut && len(live) > 0; i++ {
			j := r.Intn(len(live))
			cuts = append(cuts, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, c := range cuts {
			ref.Cut(c[0], c[1])
		}
		for i, nLink := 0, r.Intn(40); i < nLink; i++ {
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
		mustValidate(t, f, "batch-query differential update")
		checkBatchQueriesAgainstSingleOps(t, "mixed", f, ref, r, live, q)
	}
}

func TestBatchQueriesSequentialEngine(t *testing.T) {
	runBatchQueryDifferential(t, false, QueryAuto, 30, 40, 51)
}

func TestBatchQueriesParallelEngine(t *testing.T) {
	runBatchQueryDifferential(t, true, QueryAuto, 30, 40, 52)
}

func TestBatchQueriesSharedMode(t *testing.T) {
	runBatchQueryDifferential(t, false, QueryShared, 30, 40, 53)
}

func TestBatchQueriesSharedModeParallel(t *testing.T) {
	runBatchQueryDifferential(t, true, QueryShared, 30, 40, 54)
}

func TestBatchQueriesIndependentMode(t *testing.T) {
	runBatchQueryDifferential(t, true, QueryIndependent, 30, 40, 55)
}

// TestBatchQueriesShapes validates the batch queries on adversarial tree
// shapes (superunary stars, dandelions, high-fanout k-ary) after batch
// builds in both engines.
func TestBatchQueriesShapes(t *testing.T) {
	n := 250
	shapes := []gen.Tree{
		gen.Path(n), gen.Star(n), gen.KAry(n, 64), gen.Dandelion(n),
		gen.PrefAttach(n, 61), gen.RandomAttach(n, 62),
	}
	for _, par := range []bool{false, true} {
		for _, tr := range shapes {
			f := New(n)
			if par {
				forceParallelQueries(t, f)
			}
			ref := refforest.New(n)
			r := rng.New(63)
			for v := 0; v < n; v++ {
				val := int64(r.Intn(500))
				f.SetVertexValue(v, val)
				ref.SetVertexValue(v, val)
			}
			sh := gen.Shuffled(gen.WithRandomWeights(tr, 50, 64), 65)
			var edges []Edge
			var live [][2]int
			for _, e := range sh.Edges {
				edges = append(edges, Edge{e.U, e.V, e.W})
				ref.Link(e.U, e.V, e.W)
				live = append(live, [2]int{e.U, e.V})
			}
			f.BatchLink(edges)
			checkBatchQueriesAgainstSingleOps(t, tr.Name, f, ref, r, live, 60)
		}
	}
}

// TestBatchQueriesChaosStress is the chaos-scheduling analogue: batch
// updates and batch queries both run with a Gosched at every
// synchronization boundary, widening the interleaving space on small
// hosts. Long: skipped in -short (CI race job runs the full mode).
func TestBatchQueriesChaosStress(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress skipped in -short")
	}
	parChaos = true
	t.Cleanup(func() { parChaos = false })
	for rep := 0; rep < 3; rep++ {
		runBatchQueryDifferential(t, true, QueryAuto, 12, 25, 70+uint64(rep))
	}
	// The shared walker has its own scratch handoffs: chaos both modes.
	runBatchQueryDifferential(t, true, QueryShared, 12, 25, 75)
	runBatchQueryDifferential(t, true, QueryIndependent, 12, 25, 76)
}

// TestBatchQueriesEmptyAndTiny covers the degenerate inputs: empty batches
// and batches below the parallel threshold.
func TestBatchQueriesEmptyAndTiny(t *testing.T) {
	f := New(4)
	f.Link(0, 1, 3)
	if got := f.BatchConnected(nil); len(got) != 0 {
		t.Fatalf("BatchConnected(nil) returned %d results", len(got))
	}
	if s, ok := f.BatchPathSum([][2]int{{0, 1}}); s[0] != 3 || !ok[0] {
		t.Fatalf("BatchPathSum tiny = %d,%v", s[0], ok[0])
	}
	if _, ok := f.BatchPathHops([][2]int{{0, 3}}); ok[0] {
		t.Fatal("BatchPathHops across components should report ok=false")
	}
}

// TestBatchSubtreeSumPanicsDeterministically checks that a non-adjacent
// pair panics with the single-op message before any fan-out, in both
// engines.
func TestBatchSubtreeSumPanicsDeterministically(t *testing.T) {
	for _, par := range []bool{false, true} {
		f := New(5)
		if par {
			forceParallelQueries(t, f)
		}
		f.Link(0, 1, 1)
		f.Link(1, 2, 1)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("BatchSubtreeSum with non-adjacent pair did not panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, "non-adjacent") {
					t.Fatalf("unexpected panic: %v", r)
				}
			}()
			f.BatchSubtreeSum([][2]int{{0, 1}, {0, 2}})
		}()
	}
}

// mustPanic runs fn and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

// TestBatchAdversarialInputs drives the documented adversarial batches —
// duplicate edges inside one batch, the same edge in both orientations,
// self loops, absent cuts — through both engines and checks (a) the panic
// is deterministic and (b) the forest is untouched afterwards (validation
// precedes mutation), by differential comparison against the oracle.
func TestBatchAdversarialInputs(t *testing.T) {
	n := 60
	for _, par := range []bool{false, true} {
		f := New(n)
		if par {
			forceParallelQueries(t, f)
		}
		ref := refforest.New(n)
		tr := gen.Shuffled(gen.WithRandomWeights(gen.RandomAttach(n, 81), 20, 82), 83)
		var edges []Edge
		for _, e := range tr.Edges {
			edges = append(edges, Edge{e.U, e.V, e.W})
			ref.Link(e.U, e.V, e.W)
		}
		f.BatchLink(edges)

		// Pick one live edge (u,v) and one absent-but-valid pair.
		u, v := tr.Edges[0].U, tr.Edges[0].V
		mustPanic(t, "self loop", func() {
			f.BatchCut([][2]int{{u, v}})
			f.BatchLink([]Edge{{u, v, 1}, {7, 7, 1}})
		})
		// The first statement above ran: restore before the checks below.
		if !f.HasEdge(u, v) {
			f.BatchLink([]Edge{{u, v, tr.Edges[0].W}})
		}
		mustPanic(t, "repeated in batch link", func() {
			f.BatchCut([][2]int{{u, v}})
			f.BatchLink([]Edge{{u, v, 1}, {u, v, 2}})
		})
		if !f.HasEdge(u, v) {
			f.BatchLink([]Edge{{u, v, tr.Edges[0].W}})
		}
		mustPanic(t, "repeated in batch link", func() {
			f.BatchCut([][2]int{{u, v}})
			f.BatchLink([]Edge{{u, v, 1}, {v, u, 2}})
		})
		if !f.HasEdge(u, v) {
			f.BatchLink([]Edge{{u, v, tr.Edges[0].W}})
		}
		mustPanic(t, "duplicate edge", func() {
			f.BatchLink([]Edge{{u, v, 9}})
		})
		mustPanic(t, "repeated in batch cut", func() {
			f.BatchCut([][2]int{{u, v}, {v, u}})
		})
		absent := -1
		for w := 0; w < n; w++ {
			if w != u && !f.HasEdge(u, w) {
				absent = w
				break
			}
		}
		mustPanic(t, "cutting absent edge", func() {
			f.BatchCut([][2]int{{u, v}, {u, absent}})
		})

		// Forest must be exactly as built: full differential sweep.
		mustValidate(t, f, "post-adversarial")
		r := rng.New(84)
		for q := 0; q < 150; q++ {
			a, b := r.Intn(n), r.Intn(n)
			gs, gok := f.PathSum(a, b)
			ws, wok := ref.PathSum(a, b)
			if gok != wok || (wok && gs != ws) {
				t.Fatalf("par=%v: post-adversarial PathSum(%d,%d) = %d,%v want %d,%v",
					par, a, b, gs, gok, ws, wok)
			}
		}
		if f.EdgeCount() != len(tr.Edges) {
			t.Fatalf("par=%v: edge count drifted to %d, want %d", par, f.EdgeCount(), len(tr.Edges))
		}
	}
}
