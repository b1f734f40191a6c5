package ufotree_test

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/refforest"
	"repro/internal/rng"
)

func allForests(n int) []ufotree.Forest {
	return []ufotree.Forest{
		ufotree.NewUFO(n),
		ufotree.NewLinkCut(n),
		ufotree.NewETTTreap(n, 1),
		ufotree.NewETTSplay(n),
		ufotree.NewETTSkipList(n, 2),
		ufotree.NewTopology(n),
		ufotree.NewRC(n),
	}
}

// TestFacadeAgreement drives every structure with one operation sequence
// and requires all of them to agree with the oracle on every query they
// support.
func TestFacadeAgreement(t *testing.T) {
	n := 60
	forests := allForests(n)
	ref := refforest.New(n)
	r := rng.New(1001)
	var live [][2]int
	for step := 0; step < 1200; step++ {
		switch {
		case r.Intn(10) < 5:
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !ref.Connected(u, v) {
				w := int64(1 + r.Intn(40))
				ref.Link(u, v, w)
				for _, f := range forests {
					f.Link(u, v, w)
				}
				live = append(live, [2]int{u, v})
			}
		case len(live) > 0:
			i := r.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			ref.Cut(e[0], e[1])
			for _, f := range forests {
				f.Cut(e[0], e[1])
			}
		}
		u, v := r.Intn(n), r.Intn(n)
		want := ref.Connected(u, v)
		for _, f := range forests {
			if got := f.Connected(u, v); got != want {
				t.Fatalf("step %d: %s Connected(%d,%d) = %v, want %v", step, f.Name(), u, v, got, want)
			}
			if pq, ok := f.(ufotree.PathQuerier); ok {
				gs, gok := pq.PathSum(u, v)
				ws, wok := ref.PathSum(u, v)
				if gok != wok || (gok && gs != ws) {
					t.Fatalf("step %d: %s PathSum(%d,%d) = %d,%v want %d,%v",
						step, f.Name(), u, v, gs, gok, ws, wok)
				}
			}
		}
	}
}

// TestFacadeSubtree drives the subtree-capable structures together.
func TestFacadeSubtree(t *testing.T) {
	n := 40
	forests := allForests(n)
	ref := refforest.New(n)
	r := rng.New(1002)
	tr := gen.Shuffled(gen.RandomDegree3(n, 1003), 1004)
	for _, e := range tr.Edges {
		ref.Link(e.U, e.V, e.W)
		for _, f := range forests {
			f.Link(e.U, e.V, e.W)
		}
	}
	for v := 0; v < n; v++ {
		val := int64(r.Intn(100))
		ref.SetVertexValue(v, val)
		for _, f := range forests {
			if sq, ok := f.(ufotree.SubtreeQuerier); ok {
				sq.SetVertexValue(v, val)
			}
		}
	}
	for q := 0; q < 300; q++ {
		e := tr.Edges[r.Intn(len(tr.Edges))]
		v, p := e.U, e.V
		if r.Bool() {
			v, p = p, v
		}
		want := ref.SubtreeSum(v, p)
		for _, f := range forests {
			if sq, ok := f.(ufotree.SubtreeQuerier); ok {
				if got := sq.SubtreeSum(v, p); got != want {
					t.Fatalf("%s: SubtreeSum(%d,%d) = %d, want %d", f.Name(), v, p, got, want)
				}
			}
		}
	}
}

// TestBatchFacade checks the batch interface across structures.
func TestBatchFacade(t *testing.T) {
	n := 500
	tr := gen.Shuffled(gen.PrefAttach(n, 1005), 1006)
	batchers := []ufotree.BatchForest{
		ufotree.NewUFO(n), ufotree.NewETTTreap(n, 3),
		ufotree.NewTopology(n), ufotree.NewRC(n),
	}
	var edges []ufotree.Edge
	for _, e := range tr.Edges {
		edges = append(edges, ufotree.Edge{U: e.U, V: e.V, W: e.W})
	}
	for _, f := range batchers {
		f.SetWorkers(0)
		for lo := 0; lo < len(edges); lo += 77 {
			hi := lo + 77
			if hi > len(edges) {
				hi = len(edges)
			}
			f.BatchLink(edges[lo:hi])
		}
		if !f.Connected(0, n-1) {
			t.Fatalf("%s: batch build incomplete", f.Name())
		}
		f.BatchCut(edges)
		if f.Connected(tr.Edges[0].U, tr.Edges[0].V) && tr.Edges[0].U != tr.Edges[0].V {
			t.Fatalf("%s: batch cut incomplete", f.Name())
		}
	}
}

// TestConnectivityProperties uses testing/quick on random forests: the
// connectivity relation must be symmetric and transitive across all
// structures simultaneously.
func TestConnectivityProperties(t *testing.T) {
	prop := func(seed uint64) bool {
		n := 24
		r := rng.New(seed)
		f := ufotree.NewUFO(n)
		ref := refforest.New(n)
		for i := 0; i < 30; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !ref.Connected(u, v) {
				f.Link(u, v, 1)
				ref.Link(u, v, 1)
			}
		}
		for i := 0; i < 60; i++ {
			a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
			if f.Connected(a, b) != f.Connected(b, a) {
				return false
			}
			if f.Connected(a, b) && f.Connected(b, c) && !f.Connected(a, c) {
				return false
			}
			if f.Connected(a, b) != ref.Connected(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestUnderlyingUFOAccess checks the extended-API escape hatch (LCA and
// structural validation via the concrete type).
func TestUnderlyingUFOAccess(t *testing.T) {
	f := ufotree.NewUFO(6)
	f.Link(0, 1, 1)
	f.Link(1, 2, 1)
	f.Link(1, 3, 1)
	uf, ok := ufotree.UnderlyingUFO(f)
	if !ok {
		t.Fatal("UnderlyingUFO failed on a UFO facade")
	}
	if err := uf.Validate(); err != nil {
		t.Fatalf("validator: %v", err)
	}
	if l, ok := uf.LCA(2, 3, 0); !ok || l != 1 {
		t.Fatalf("LCA(2,3;0) = %d,%v want 1", l, ok)
	}
	if _, ok := ufotree.UnderlyingUFO(ufotree.NewLinkCut(3)); ok {
		t.Fatal("UnderlyingUFO should fail on non-UFO forests")
	}
}

// TestETTLinkWeightContract pins the facade's documented weight behavior:
// weight-agnostic adapters (Euler tour trees) accept and ignore weights —
// no panic, no drift in connectivity or subtree sums — and do not claim
// PathQuerier.
func TestETTLinkWeightContract(t *testing.T) {
	for _, f := range []ufotree.Forest{
		ufotree.NewETTTreap(8, 1), ufotree.NewETTSplay(8), ufotree.NewETTSkipList(8, 2),
	} {
		f.Link(0, 1, 42) // weight silently ignored
		f.Link(1, 2, -7)
		if !f.Connected(0, 2) {
			t.Fatalf("%s: weighted links did not connect", f.Name())
		}
		if _, ok := f.(ufotree.PathQuerier); ok {
			t.Fatalf("%s: weight-agnostic structure must not satisfy PathQuerier", f.Name())
		}
		sq := f.(ufotree.SubtreeQuerier)
		sq.SetVertexValue(2, 5)
		if got := sq.SubtreeSum(2, 1); got != 5 {
			t.Fatalf("%s: SubtreeSum after weighted links = %d, want 5", f.Name(), got)
		}
	}
	// Weight-aware structures must aggregate the same weight the ETTs drop.
	for _, f := range []ufotree.Forest{
		ufotree.NewUFO(8), ufotree.NewLinkCut(8), ufotree.NewTopology(8), ufotree.NewRC(8),
	} {
		f.Link(0, 1, 42)
		if s, ok := f.(ufotree.PathQuerier).PathSum(0, 1); !ok || s != 42 {
			t.Fatalf("%s: PathSum = %d,%v want 42", f.Name(), s, ok)
		}
	}
}

// TestBatchQuerierFacade drives the batch-query interfaces through the
// facade: full BatchQuerier on UFO/topology/RC, the connectivity subset on
// ETT, differentially against the oracle under forced parallelism.
func TestBatchQuerierFacade(t *testing.T) {
	n := 400
	full := []ufotree.BatchForest{ufotree.NewUFO(n), ufotree.NewTopology(n), ufotree.NewRC(n)}
	subset := []ufotree.BatchForest{
		ufotree.NewETTTreap(n, 3), ufotree.NewETTSplay(n), ufotree.NewETTSkipList(n, 4),
	}
	ref := refforest.New(n)
	r := rng.New(1101)
	tr := gen.Shuffled(gen.WithRandomWeights(gen.PrefAttach(n, 1102), 60, 1103), 1104)
	var edges []ufotree.Edge
	for _, e := range tr.Edges {
		edges = append(edges, ufotree.Edge{U: e.U, V: e.V, W: e.W})
		ref.Link(e.U, e.V, e.W)
	}
	vals := make([]int64, n)
	for v := range vals {
		vals[v] = int64(r.Intn(200))
		ref.SetVertexValue(v, vals[v])
	}
	for _, f := range append(append([]ufotree.BatchForest{}, full...), subset...) {
		f.SetWorkers(4)
		if f.Workers() < 1 {
			t.Fatalf("%s: Workers() = %d", f.Name(), f.Workers())
		}
		for v, val := range vals {
			f.(ufotree.SubtreeQuerier).SetVertexValue(v, val)
		}
		f.BatchLink(edges)
	}
	pairs := make([][2]int, 150)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	triples := make([][3]int, 150)
	for i := range triples {
		triples[i] = [3]int{r.Intn(n), r.Intn(n), r.Intn(n)}
	}
	sub := make([][2]int, 0, 80)
	for i := 0; i < 80; i++ {
		e := tr.Edges[r.Intn(len(tr.Edges))]
		if r.Bool() {
			sub = append(sub, [2]int{e.U, e.V})
		} else {
			sub = append(sub, [2]int{e.V, e.U})
		}
	}
	for _, f := range full {
		bq, ok := f.(ufotree.BatchQuerier)
		if !ok {
			t.Fatalf("%s must implement BatchQuerier", f.Name())
		}
		conn := bq.BatchConnected(pairs)
		sums, sumOK := bq.BatchPathSum(pairs)
		lcas, lcaOK := bq.BatchLCA(triples)
		subs := bq.BatchSubtreeSum(sub)
		for i, p := range pairs {
			if conn[i] != ref.Connected(p[0], p[1]) {
				t.Fatalf("%s: BatchConnected[%d] wrong", f.Name(), i)
			}
			ws, wok := ref.PathSum(p[0], p[1])
			if sumOK[i] != wok || (wok && sums[i] != ws) {
				t.Fatalf("%s: BatchPathSum(%d,%d) = %d,%v oracle %d,%v",
					f.Name(), p[0], p[1], sums[i], sumOK[i], ws, wok)
			}
		}
		for i, tr3 := range triples {
			want, wok := ref.LCA(tr3[0], tr3[1], tr3[2])
			if lcaOK[i] != wok || (wok && lcas[i] != want) {
				t.Fatalf("%s: BatchLCA(%v) = %d,%v oracle %d,%v",
					f.Name(), tr3, lcas[i], lcaOK[i], want, wok)
			}
		}
		for i, e := range sub {
			if want := ref.SubtreeSum(e[0], e[1]); subs[i] != want {
				t.Fatalf("%s: BatchSubtreeSum(%d,%d) = %d, oracle %d",
					f.Name(), e[0], e[1], subs[i], want)
			}
		}
	}
	for _, f := range subset {
		if _, ok := f.(ufotree.BatchQuerier); ok {
			t.Fatalf("%s: ETT must not claim the full BatchQuerier", f.Name())
		}
		cq, ok := f.(ufotree.BatchConnectivityQuerier)
		if !ok {
			t.Fatalf("%s must implement BatchConnectivityQuerier", f.Name())
		}
		conn := cq.BatchConnected(pairs)
		for i, p := range pairs {
			if conn[i] != ref.Connected(p[0], p[1]) {
				t.Fatalf("%s: BatchConnected[%d] wrong", f.Name(), i)
			}
		}
		subs := cq.BatchSubtreeSum(sub)
		for i, e := range sub {
			if want := ref.SubtreeSum(e[0], e[1]); subs[i] != want {
				t.Fatalf("%s: BatchSubtreeSum(%d,%d) = %d, oracle %d",
					f.Name(), e[0], e[1], subs[i], want)
			}
		}
	}
}

// TestFacadeWorkersReportsFallback checks the effective-engine reporting
// at the facade level: with the level-synchronous rank-tree repair pass, a
// trackMax UFO forest keeps the full configured worker count — there is no
// sequential structural fallback left to report.
func TestFacadeWorkersReportsFallback(t *testing.T) {
	f := ufotree.NewUFO(16)
	f.SetWorkers(8)
	if f.Workers() != 8 {
		t.Fatalf("plain UFO facade Workers() = %d, want 8", f.Workers())
	}
	uf, _ := ufotree.UnderlyingUFO(f)
	g := ufotree.NewUFO(16)
	ug, _ := ufotree.UnderlyingUFO(g)
	ug.EnableSubtreeMax()
	g.SetWorkers(8)
	if g.Workers() != 8 {
		t.Fatalf("trackMax UFO facade Workers() = %d, want the configured 8", g.Workers())
	}
	if ug.Workers() != 8 || uf.Workers() != 8 {
		t.Fatalf("concrete Workers() should keep the configured count")
	}
}

// TestFacadeSetWorkersClamp pins the uniform facade clamp rules on every
// batch adapter: k <= 0 defaults to GOMAXPROCS, and explicit counts —
// oversubscribed included — pass through untouched.
func TestFacadeSetWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	batchers := []ufotree.BatchForest{
		ufotree.NewUFO(16), ufotree.NewTopology(16), ufotree.NewRC(16),
		ufotree.NewETTTreap(16, 3), ufotree.NewETTSplay(16), ufotree.NewETTSkipList(16, 4),
	}
	for _, f := range batchers {
		f.SetWorkers(0)
		if f.Workers() != procs {
			t.Fatalf("%s: SetWorkers(0) → Workers()=%d, want GOMAXPROCS=%d", f.Name(), f.Workers(), procs)
		}
		f.SetWorkers(-1)
		if f.Workers() != procs {
			t.Fatalf("%s: SetWorkers(-1) → Workers()=%d, want GOMAXPROCS=%d", f.Name(), f.Workers(), procs)
		}
		f.SetWorkers(6)
		if f.Workers() != 6 {
			t.Fatalf("%s: SetWorkers(6) → Workers()=%d", f.Name(), f.Workers())
		}
		f.BatchLink([]ufotree.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
		if !f.Connected(0, 2) {
			t.Fatalf("%s: batch after clamped SetWorkers broken", f.Name())
		}
	}
}

// TestFacadePhaseStats checks the telemetry surfaced through the
// BatchForest facade: engine-pipeline structures report the last batch's
// per-phase breakdown (seed items summing to the batch size, phase times
// bounded by the total), ETT adapters report the documented zero value,
// and Accumulate aggregates snapshots across batches.
func TestFacadePhaseStats(t *testing.T) {
	n := 300
	tr := gen.Shuffled(gen.PrefAttach(n, 2201), 2202)
	var edges []ufotree.Edge
	for _, e := range tr.Edges {
		edges = append(edges, ufotree.Edge{U: e.U, V: e.V, W: e.W})
	}
	for _, f := range []ufotree.BatchForest{ufotree.NewUFO(n), ufotree.NewTopology(n), ufotree.NewRC(n)} {
		if st := f.PhaseStats(); st.Batches != 0 {
			t.Fatalf("%s: PhaseStats before any batch = %+v, want zero", f.Name(), st)
		}
		var agg ufotree.PhaseStats
		for lo := 0; lo < len(edges); lo += 100 {
			hi := lo + 100
			if hi > len(edges) {
				hi = len(edges)
			}
			f.BatchLink(edges[lo:hi])
			st := f.PhaseStats()
			if st.Batches != 1 {
				t.Fatalf("%s: snapshot Batches = %d, want 1 (stats must reset per batch)", f.Name(), st.Batches)
			}
			// Ternarized adapters route one facade edge through several
			// internal edges, so compare against the engine's own view.
			if seeded := phaseItems(st, "seed_cuts") + phaseItems(st, "seed_links"); seeded != st.Links+st.Cuts {
				t.Fatalf("%s: seed items %d != links+cuts %d", f.Name(), seeded, st.Links+st.Cuts)
			}
			var sum time.Duration
			for _, ph := range st.Phases {
				if ph.Time < 0 {
					t.Fatalf("%s: negative phase time %+v", f.Name(), ph)
				}
				sum += ph.Time
			}
			if sum > st.Total {
				t.Fatalf("%s: phase times %v exceed batch total %v", f.Name(), sum, st.Total)
			}
			if st.Levels < 1 {
				t.Fatalf("%s: Levels = %d, want >= 1", f.Name(), st.Levels)
			}
			agg.Accumulate(st)
		}
		wantBatches := (len(edges) + 99) / 100
		if agg.Batches != wantBatches {
			t.Fatalf("%s: accumulated Batches = %d, want %d", f.Name(), agg.Batches, wantBatches)
		}
		// Clone must not alias the accumulation buffer (stats endpoints
		// hand clones to other goroutines while Accumulate keeps writing).
		clone := agg.Clone()
		before := clone.Phases[0].Calls
		agg.Accumulate(f.PhaseStats())
		if clone.Phases[0].Calls != before {
			t.Fatalf("%s: Clone aliases the accumulated Phases array", f.Name())
		}
	}
	ett := ufotree.NewETTTreap(n, 9)
	ett.BatchLink(edges)
	if st := ett.PhaseStats(); st.Batches != 0 || len(st.Phases) != 0 {
		t.Fatalf("ETT PhaseStats = %+v, want the documented zero value", st)
	}
}

func phaseItems(st ufotree.PhaseStats, name string) int64 {
	for _, ph := range st.Phases {
		if ph.Name == name {
			return ph.Items
		}
	}
	return 0
}
