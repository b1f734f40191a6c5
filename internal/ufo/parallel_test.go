package ufo

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/refforest"
	"repro/internal/rng"
)

// forceParallel drives the parallel engine paths regardless of input size
// and host core count (small grain + oversubscribed workers exercise real
// interleavings even on single-core CI runners). The previous grain is
// restored when the test finishes.
func forceParallel(t *testing.T, f *Forest) {
	t.Helper()
	old := parGrain
	parGrain = 1
	t.Cleanup(func() { parGrain = old })
	k := 2 * runtime.GOMAXPROCS(0)
	if k < 4 {
		k = 4
	}
	f.SetWorkers(k)
}

// TestParallelBatchBuildDestroyShapes is the parallel-engine analogue of
// TestBatchBuildDestroyShapes: batch build + destroy over every input
// shape, validating the full invariant set after every batch.
func TestParallelBatchBuildDestroyShapes(t *testing.T) {
	n := 400
	shapes := []gen.Tree{
		gen.Path(n), gen.Binary(n), gen.KAry(n, 64), gen.Star(n),
		gen.Dandelion(n), gen.RandomAttach(n, 2), gen.PrefAttach(n, 3),
	}
	for _, batch := range []int{17, 128, 399} {
		for _, tr := range shapes {
			f := New(n)
			forceParallel(t, f)
			ref := refforest.New(n)
			sh := gen.Shuffled(gen.WithRandomWeights(tr, 50, 11), 13)
			for lo := 0; lo < len(sh.Edges); lo += batch {
				hi := lo + batch
				if hi > len(sh.Edges) {
					hi = len(sh.Edges)
				}
				var edges []Edge
				for _, e := range sh.Edges[lo:hi] {
					edges = append(edges, Edge{e.U, e.V, e.W})
					ref.Link(e.U, e.V, e.W)
				}
				f.BatchLink(edges)
				mustValidate(t, f, tr.Name+" parallel batch link")
			}
			if f.ComponentSize(0) != n {
				t.Fatalf("%s (batch %d): not connected after parallel batch build", tr.Name, batch)
			}
			r := rng.New(99)
			for q := 0; q < 100; q++ {
				u, v := r.Intn(n), r.Intn(n)
				gs, _ := f.PathSum(u, v)
				ws, _ := ref.PathSum(u, v)
				if gs != ws {
					t.Fatalf("%s (batch %d): PathSum(%d,%d) = %d, want %d", tr.Name, batch, u, v, gs, ws)
				}
			}
			sh2 := gen.Shuffled(tr, 17)
			for lo := 0; lo < len(sh2.Edges); lo += batch {
				hi := lo + batch
				if hi > len(sh2.Edges) {
					hi = len(sh2.Edges)
				}
				var edges [][2]int
				for _, e := range sh2.Edges[lo:hi] {
					edges = append(edges, [2]int{e.U, e.V})
				}
				f.BatchCut(edges)
				mustValidate(t, f, tr.Name+" parallel batch cut")
			}
			if f.EdgeCount() != 0 {
				t.Fatalf("%s (batch %d): edges remain after parallel batch destroy", tr.Name, batch)
			}
		}
	}
}

// TestParallelMatchesSequential applies identical random mixed batches to a
// workers=1 forest, a parallel forest, and the oracle, and asserts that
// every query agrees after every batch: the parallel engine may build a
// different (valid) cluster hierarchy, but the represented forest must be
// identical.
func TestParallelMatchesSequential(t *testing.T) {
	n := 300
	seqF := New(n)
	parF := New(n)
	forceParallel(t, parF)
	ref := refforest.New(n)
	r := rng.New(21)
	var live [][2]int
	for round := 0; round < 60; round++ {
		var links []Edge
		var cuts [][2]int
		nCut := r.Intn(20)
		for i := 0; i < nCut && len(live) > 0; i++ {
			j := r.Intn(len(live))
			cuts = append(cuts, live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		for _, c := range cuts {
			ref.Cut(c[0], c[1])
		}
		nLink := r.Intn(40)
		for i := 0; i < nLink; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !ref.Connected(u, v) {
				w := int64(1 + r.Intn(30))
				ref.Link(u, v, w)
				links = append(links, Edge{u, v, w})
				live = append(live, [2]int{u, v})
			}
		}
		seqF.eng.run(links, cuts)
		parF.eng.run(links, cuts)
		mustValidate(t, seqF, "sequential mixed batch")
		mustValidate(t, parF, "parallel mixed batch")
		for q := 0; q < 50; q++ {
			u, v := r.Intn(n), r.Intn(n)
			sc, pc, rc := seqF.Connected(u, v), parF.Connected(u, v), ref.Connected(u, v)
			if sc != rc || pc != rc {
				t.Fatalf("round %d: Connected(%d,%d) seq=%v par=%v ref=%v", round, u, v, sc, pc, rc)
			}
			ss, sok := seqF.PathSum(u, v)
			ps, pok := parF.PathSum(u, v)
			ws, wok := ref.PathSum(u, v)
			if sok != wok || pok != wok || (wok && (ss != ws || ps != ws)) {
				t.Fatalf("round %d: PathSum(%d,%d) seq=%d,%v par=%d,%v ref=%d,%v",
					round, u, v, ss, sok, ps, pok, ws, wok)
			}
			sm, sok := seqF.PathMax(u, v)
			pm, pok := parF.PathMax(u, v)
			wm, wok := ref.PathMax(u, v)
			if sok != wok || pok != wok || (wok && (sm != wm || pm != wm)) {
				t.Fatalf("round %d: PathMax(%d,%d) seq=%d,%v par=%d,%v ref=%d,%v",
					round, u, v, sm, sok, pm, pok, wm, wok)
			}
		}
		if len(live) > 0 {
			e := live[r.Intn(len(live))]
			sv, pv, rv := seqF.SubtreeSum(e[0], e[1]), parF.SubtreeSum(e[0], e[1]), ref.SubtreeSum(e[0], e[1])
			if sv != rv || pv != rv {
				t.Fatalf("round %d: SubtreeSum seq=%d par=%d ref=%d", round, sv, pv, rv)
			}
		}
	}
}

// TestParallelTopologyAndRC drives the degree-bounded modes through the
// parallel engine (conditional deletion deletes every examined cluster in
// topology mode, exercising the actDelete path heavily).
func TestParallelTopologyAndRC(t *testing.T) {
	n := 300
	for _, mk := range []struct {
		name string
		mk   func(int) *Forest
	}{{"topology", NewTopology}, {"rc", NewRC}} {
		f := mk.mk(n)
		forceParallel(t, f)
		ref := refforest.New(n)
		tr := gen.Shuffled(gen.WithRandomWeights(gen.RandomDegree3(n, 5), 40, 6), 7)
		var edges []Edge
		for _, e := range tr.Edges {
			edges = append(edges, Edge{e.U, e.V, e.W})
			ref.Link(e.U, e.V, e.W)
		}
		f.BatchLink(edges)
		mustValidate(t, f, mk.name+" parallel build")
		r := rng.New(8)
		for q := 0; q < 100; q++ {
			u, v := r.Intn(n), r.Intn(n)
			gs, gok := f.PathSum(u, v)
			ws, wok := ref.PathSum(u, v)
			if gok != wok || (wok && gs != ws) {
				t.Fatalf("%s: PathSum(%d,%d) = %d,%v want %d,%v", mk.name, u, v, gs, gok, ws, wok)
			}
		}
		var cuts [][2]int
		for _, e := range gen.Shuffled(tr, 9).Edges {
			cuts = append(cuts, [2]int{e.U, e.V})
		}
		f.BatchCut(cuts)
		mustValidate(t, f, mk.name+" parallel destroy")
		if f.EdgeCount() != 0 {
			t.Fatalf("%s: edges remain after parallel destroy", mk.name)
		}
	}
}

// TestParallelSubtreeMax checks that the rank-tree (non-invertible
// aggregate) configuration works with workers > 1: every structural phase
// runs parallel, with rank-tree maintenance deferred to the
// level-synchronous repair pass.
func TestParallelSubtreeMax(t *testing.T) {
	n := 200
	f := New(n)
	f.EnableSubtreeMax()
	forceParallel(t, f)
	r := rng.New(31)
	vals := make([]int64, n)
	for v := 0; v < n; v++ {
		vals[v] = int64(r.Intn(1000))
		f.SetVertexValue(v, vals[v])
	}
	tr := gen.Shuffled(gen.RandomAttach(n, 12), 13)
	var edges []Edge
	for _, e := range tr.Edges {
		edges = append(edges, Edge{e.U, e.V, e.W})
	}
	f.BatchLink(edges)
	mustValidate(t, f, "subtree-max parallel build")
	var mx int64
	for _, v := range vals {
		if v > mx {
			mx = v
		}
	}
	if got := f.ComponentMax(0); got != mx {
		t.Fatalf("ComponentMax = %d, want %d", got, mx)
	}
}

// TestParallelChaosStress re-runs a mixed-batch differential scenario with
// chaos scheduling (a Gosched at every synchronization boundary of the
// parallel phases), exploring far more interleavings than natural
// preemption allows on few-core hosts.
func TestParallelChaosStress(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos stress skipped in -short")
	}
	parChaos = true
	t.Cleanup(func() { parChaos = false })
	n := 250
	for rep := 0; rep < 6; rep++ {
		f := New(n)
		forceParallel(t, f)
		ref := refforest.New(n)
		r := rng.New(100 + uint64(rep))
		var live [][2]int
		for round := 0; round < 25; round++ {
			var links []Edge
			var cuts [][2]int
			for i, nCut := 0, r.Intn(15); i < nCut && len(live) > 0; i++ {
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
			f.eng.run(links, cuts)
			mustValidate(t, f, "chaos mixed batch")
			for q := 0; q < 20; q++ {
				u, v := r.Intn(n), r.Intn(n)
				gs, gok := f.PathSum(u, v)
				ws, wok := ref.PathSum(u, v)
				if gok != wok || (wok && gs != ws) {
					t.Fatalf("rep %d round %d: PathSum(%d,%d) = %d,%v want %d,%v",
						rep, round, u, v, gs, gok, ws, wok)
				}
			}
		}
	}
}

// TestParallelSingleEditsUseSequentialPath ensures Link/Cut (batch size 1)
// never pay the parallel setup even with workers configured.
func TestParallelSingleEditsUseSequentialPath(t *testing.T) {
	f := New(10)
	f.SetWorkers(8)
	f.Link(0, 1, 5)
	f.Link(1, 2, 7)
	f.Cut(0, 1)
	if !f.Connected(1, 2) || f.Connected(0, 1) {
		t.Fatal("single-edit updates broken with workers configured")
	}
	mustValidate(t, f, "single edits")
}

// TestSetWorkersClamps pins the worker-knob clamp rules: k <= 0 defaults
// to GOMAXPROCS (not the silent sequential clamp it used to be), k == 1 is
// the inline engine, and oversubscribed counts pass through untouched.
func TestSetWorkersClamps(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	f := New(4)
	f.SetWorkers(0)
	if f.Workers() != procs {
		t.Fatalf("SetWorkers(0) → %d, want GOMAXPROCS=%d", f.Workers(), procs)
	}
	f.SetWorkers(-3)
	if f.Workers() != procs {
		t.Fatalf("SetWorkers(-3) → %d, want GOMAXPROCS=%d", f.Workers(), procs)
	}
	f.SetWorkers(1)
	if f.Workers() != 1 {
		t.Fatalf("SetWorkers(1) → %d, want 1", f.Workers())
	}
	f.SetWorkers(64) // oversubscription is allowed
	if f.Workers() != 64 {
		t.Fatalf("SetWorkers(64) → %d, want 64", f.Workers())
	}
	// The clamp is usable: a forest configured through the default knob
	// still applies batches correctly.
	f.SetWorkers(0)
	f.BatchLink([]Edge{{0, 1, 2}, {1, 2, 3}})
	if !f.Connected(0, 2) {
		t.Fatal("batch after SetWorkers(0) broken")
	}
	mustValidate(t, f, "SetWorkers(0) batch")
}
