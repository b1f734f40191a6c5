package ett

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/refforest"
	"repro/internal/rng"
)

type batchForest interface {
	forest
	BatchLink([][2]int)
	BatchCut([][2]int)
	SetWorkers(int)
}

// batchBackends returns one forest per backend, each fanned out over an
// explicit four workers so the grouped batch paths run in parallel even
// on a one-CPU host.
func batchBackends(n int) []batchForest {
	a := NewTreap(n, 7)
	b := NewSplay(n)
	c := NewSkipList(n, 8)
	a.SetWorkers(4)
	b.SetWorkers(4)
	c.SetWorkers(4)
	return []batchForest{a, b, c}
}

func TestBatchBuildDestroy(t *testing.T) {
	n := 600
	shapes := []gen.Tree{
		gen.Path(n), gen.Star(n), gen.Binary(n), gen.PrefAttach(n, 301),
	}
	for _, tr := range shapes {
		for _, f := range batchBackends(n) {
			sh := gen.Shuffled(tr, 303)
			for lo := 0; lo < len(sh.Edges); lo += 97 {
				hi := lo + 97
				if hi > len(sh.Edges) {
					hi = len(sh.Edges)
				}
				var batch [][2]int
				for _, e := range sh.Edges[lo:hi] {
					batch = append(batch, [2]int{e.U, e.V})
				}
				f.BatchLink(batch)
			}
			if f.ComponentSize(0) != n {
				t.Fatalf("%s/%s: batch build incomplete", f.BackendName(), tr.Name)
			}
			sh2 := gen.Shuffled(tr, 304)
			for lo := 0; lo < len(sh2.Edges); lo += 131 {
				hi := lo + 131
				if hi > len(sh2.Edges) {
					hi = len(sh2.Edges)
				}
				var batch [][2]int
				for _, e := range sh2.Edges[lo:hi] {
					batch = append(batch, [2]int{e.U, e.V})
				}
				f.BatchCut(batch)
			}
			if f.EdgeCount() != 0 || f.ComponentSize(0) != 1 {
				t.Fatalf("%s/%s: batch destroy incomplete", f.BackendName(), tr.Name)
			}
		}
	}
}

func TestBatchMatchesOracle(t *testing.T) {
	n := 150
	for _, f := range batchBackends(n) {
		ref := refforest.New(n)
		r := rng.New(311)
		var live [][2]int
		for round := 0; round < 80; round++ {
			var cuts [][2]int
			for i := 0; i < r.Intn(6) && len(live) > 0; i++ {
				j := r.Intn(len(live))
				cuts = append(cuts, live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for _, c := range cuts {
				ref.Cut(c[0], c[1])
			}
			if len(cuts) > 0 {
				f.BatchCut(cuts)
			}
			var links [][2]int
			for i := 0; i < r.Intn(10); i++ {
				u, v := r.Intn(n), r.Intn(n)
				if u != v && !ref.Connected(u, v) {
					ref.Link(u, v, 1)
					links = append(links, [2]int{u, v})
					live = append(live, [2]int{u, v})
				}
			}
			if len(links) > 0 {
				f.BatchLink(links)
			}
			for q := 0; q < 25; q++ {
				u, v := r.Intn(n), r.Intn(n)
				if got, want := f.Connected(u, v), ref.Connected(u, v); got != want {
					t.Fatalf("%s round %d: Connected(%d,%d) = %v, want %v",
						f.BackendName(), round, u, v, got, want)
				}
			}
			u := r.Intn(n)
			if got, want := f.ComponentSize(u), ref.ComponentSize(u); got != want {
				t.Fatalf("%s round %d: ComponentSize(%d) = %d, want %d",
					f.BackendName(), round, u, got, want)
			}
		}
	}
}

func TestBatchPanicsOnBadInput(t *testing.T) {
	f := NewTreap(5, 9)
	f.BatchLink([][2]int{{0, 1}})
	for name, fn := range map[string]func(){
		"duplicate": func() { f.BatchLink([][2]int{{1, 0}}) },
		"self":      func() { f.BatchLink([][2]int{{2, 2}}) },
		"absent":    func() { f.BatchCut([][2]int{{2, 3}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

type batchQueryForest interface {
	batchForest
	Workers() int
	BatchConnected([][2]int) []bool
	BatchSubtreeSum([][2]int) []int64
}

// TestBatchQueriesMatchOracle validates BatchConnected and BatchSubtreeSum
// against the single-op queries and the oracle on every backend, with the
// worker knob forced past 1 (read-only backends take the flat parallel
// path, splay trees take the documented serial fallback) and the query
// grain lowered so tiny batches still fan out.
func TestBatchQueriesMatchOracle(t *testing.T) {
	oldGrain := ettQueryGrain
	ettQueryGrain = 1
	t.Cleanup(func() { ettQueryGrain = oldGrain })
	n := 250
	fs := []batchQueryForest{NewTreap(n, 7), NewSplay(n), NewSkipList(n, 8)}
	for _, f := range fs {
		f.SetWorkers(4)
		if f.Workers() != 4 {
			t.Fatalf("%s: Workers() = %d after SetWorkers(4)", f.BackendName(), f.Workers())
		}
		ref := refforest.New(n)
		r := rng.New(21)
		for v := 0; v < n; v++ {
			val := int64(r.Intn(300))
			f.SetVertexValue(v, val)
			ref.SetVertexValue(v, val)
		}
		// Build a fragmented forest (several components) in batches, so the
		// component-grouped subtree fan-out has real groups to spread.
		tr := gen.RandomAttach(n, 22)
		var links [][2]int
		var live [][2]int
		for i, e := range tr.Edges {
			if i%17 == 0 {
				continue // leave holes: multiple components
			}
			links = append(links, [2]int{e.U, e.V})
			live = append(live, [2]int{e.U, e.V})
			ref.Link(e.U, e.V, 1)
		}
		f.BatchLink(links)
		q := 120
		pairs := make([][2]int, q)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
		}
		conn := f.BatchConnected(pairs)
		for i, p := range pairs {
			if want := ref.Connected(p[0], p[1]); conn[i] != want {
				t.Fatalf("%s: BatchConnected(%d,%d) = %v, want %v", f.BackendName(), p[0], p[1], conn[i], want)
			}
			if single := f.Connected(p[0], p[1]); conn[i] != single {
				t.Fatalf("%s: BatchConnected[%d] disagrees with single-op", f.BackendName(), i)
			}
		}
		sub := make([][2]int, 0, 60)
		for i := 0; i < 60; i++ {
			e := live[r.Intn(len(live))]
			if r.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			sub = append(sub, e)
		}
		got := f.BatchSubtreeSum(sub)
		for i, e := range sub {
			if want := ref.SubtreeSum(e[0], e[1]); got[i] != want {
				t.Fatalf("%s: BatchSubtreeSum(%d,%d) = %d, oracle %d", f.BackendName(), e[0], e[1], got[i], want)
			}
		}
		// Non-adjacent pair panics deterministically.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: BatchSubtreeSum with non-adjacent pair did not panic", f.BackendName())
				}
			}()
			var bad [2]int
		search:
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u != v && !f.HasEdge(u, v) {
						bad = [2]int{u, v}
						break search
					}
				}
			}
			f.BatchSubtreeSum([][2]int{bad})
		}()
	}
}
