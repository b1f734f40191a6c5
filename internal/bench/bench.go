package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/rng"
)

// Builder constructs one dynamic-tree structure for benchmarking.
type Builder struct {
	Name  string
	New   func(n int) ufotree.Forest
	Batch bool // supports BatchForest
	Path  bool // supports PathQuerier
}

// Sequential returns the structures of the sequential experiments
// (Figures 5-7), in the paper's ordering.
func Sequential() []Builder {
	return []Builder{
		{Name: "link-cut", New: func(n int) ufotree.Forest { return ufotree.NewLinkCut(n) }, Path: true},
		{Name: "ufo", New: func(n int) ufotree.Forest { return ufotree.NewUFO(n) }, Batch: true, Path: true},
		{Name: "ett-treap", New: func(n int) ufotree.Forest { return ufotree.NewETTTreap(n, 1) }, Batch: true},
		{Name: "ett-splay", New: func(n int) ufotree.Forest { return ufotree.NewETTSplay(n) }, Batch: true},
		{Name: "ett-skiplist", New: func(n int) ufotree.Forest { return ufotree.NewETTSkipList(n, 2) }, Batch: true},
		{Name: "topology", New: func(n int) ufotree.Forest { return ufotree.NewTopology(n) }, Batch: true, Path: true},
		{Name: "rc", New: func(n int) ufotree.Forest { return ufotree.NewRC(n) }, Batch: true, Path: true},
	}
}

// Parallel returns the batch-dynamic structures of the parallel
// experiments (Figures 8, 9, 16).
func Parallel() []Builder {
	out := make([]Builder, 0, 4)
	for _, b := range Sequential() {
		if b.Batch {
			out = append(out, b)
		}
	}
	return out
}

// Inputs returns the synthetic input set of Figures 5, 7 and 8.
func Inputs(n int, seed uint64) []gen.Tree {
	return []gen.Tree{
		gen.Path(n), gen.Binary(n), gen.KAry(n, 64), gen.Star(n),
		gen.Dandelion(n), gen.RandomDegree3(n, seed), gen.RandomAttach(n, seed+1),
		gen.PrefAttach(n, seed+2),
	}
}

// GraphInputs returns the BFS and RIS spanning forests of the four
// real-world graph stand-ins (Table 2 stand-ins, internal/gen).
func GraphInputs(n int, seed uint64) []gen.Tree {
	var out []gen.Tree
	for _, g := range gen.StandardGraphs(n, seed) {
		out = append(out, gen.BFSForest(g, seed+10), gen.RISForest(g, seed+11))
	}
	return out
}

// buildDestroy inserts all edges of t in random order and then deletes them
// in another random order, returning the total wall time (the paper's
// update-speed metric).
func buildDestroy(f ufotree.Forest, t gen.Tree, seed uint64) time.Duration {
	ins := gen.Shuffled(t, seed)
	del := gen.Shuffled(t, seed+1)
	start := time.Now()
	for _, e := range ins.Edges {
		f.Link(e.U, e.V, e.W)
	}
	for _, e := range del.Edges {
		f.Cut(e.U, e.V)
	}
	return time.Since(start)
}

// buildDestroyBatch is buildDestroy in batches of size k.
func buildDestroyBatch(f ufotree.BatchForest, t gen.Tree, k int, seed uint64) time.Duration {
	ins := gen.Shuffled(t, seed)
	del := gen.Shuffled(t, seed+1)
	links := make([]ufotree.Edge, len(ins.Edges))
	for i, e := range ins.Edges {
		links[i] = ufotree.Edge{U: e.U, V: e.V, W: e.W}
	}
	cuts := make([]ufotree.Edge, len(del.Edges))
	for i, e := range del.Edges {
		cuts[i] = ufotree.Edge{U: e.U, V: e.V}
	}
	start := time.Now()
	for lo := 0; lo < len(links); lo += k {
		hi := min(lo+k, len(links))
		f.BatchLink(links[lo:hi])
	}
	for lo := 0; lo < len(cuts); lo += k {
		hi := min(lo+k, len(cuts))
		f.BatchCut(cuts[lo:hi])
	}
	return time.Since(start)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// header prints an aligned table header.
func header(w io.Writer, first string, cols []string) {
	fmt.Fprintf(w, "%-14s", first)
	for _, c := range cols {
		fmt.Fprintf(w, " %12s", c)
	}
	fmt.Fprintln(w)
}

// Fig5 regenerates Figure 5: sequential update speed (total build+destroy
// time) on the synthetic inputs, plus the graph forests when withGraphs.
func Fig5(w io.Writer, n int, seed uint64, withGraphs bool) {
	inputs := Inputs(n, seed)
	if withGraphs {
		inputs = append(inputs, GraphInputs(n/4, seed+100)...)
	}
	fmt.Fprintf(w, "# Figure 5: sequential update speed, n=%d (build + destroy, ms)\n", n)
	names := make([]string, len(inputs))
	for i, t := range inputs {
		names[i] = t.Name
	}
	header(w, "structure", names)
	for _, b := range Sequential() {
		fmt.Fprintf(w, "%-14s", b.Name)
		for _, t := range inputs {
			f := b.New(t.N)
			d := buildDestroy(f, t, seed+7)
			fmt.Fprintf(w, " %12.1f", float64(d.Microseconds())/1000)
		}
		fmt.Fprintln(w)
	}
}

// Fig6 regenerates Figure 6: the sequential diameter sweep. For each Zipf
// parameter alpha it reports (a) total update time, (b) time for q
// connectivity queries, and (c) time for q path queries on a built tree.
func Fig6(w io.Writer, n, q int, alphas []float64, seed uint64) {
	fmt.Fprintf(w, "# Figure 6: diameter sweep, n=%d, q=%d (ms; larger alpha = lower diameter)\n", n, q)
	for _, alpha := range alphas {
		t := gen.Zipf(n, alpha, seed)
		diam := gen.Diameter(t)
		fmt.Fprintf(w, "## alpha=%.2f (diameter %d)\n", alpha, diam)
		header(w, "structure", []string{"updates", "connectivity", "path"})
		for _, b := range Sequential() {
			// (a) updates
			f := b.New(t.N)
			du := buildDestroy(f, t, seed+3)
			// (b,c) queries on a built tree
			f = b.New(t.N)
			for _, e := range t.Edges {
				f.Link(e.U, e.V, e.W)
			}
			r := rng.New(seed + 4)
			start := time.Now()
			for i := 0; i < q; i++ {
				f.Connected(r.Intn(n), r.Intn(n))
			}
			dc := time.Since(start)
			dp := time.Duration(0)
			if pq, ok := f.(ufotree.PathQuerier); ok {
				r = rng.New(seed + 5)
				start = time.Now()
				for i := 0; i < q; i++ {
					pq.PathSum(r.Intn(n), r.Intn(n))
				}
				dp = time.Since(start)
			}
			fmt.Fprintf(w, "%-14s %12.1f %12.1f", b.Name,
				float64(du.Microseconds())/1000, float64(dc.Microseconds())/1000)
			if dp > 0 {
				fmt.Fprintf(w, " %12.1f\n", float64(dp.Microseconds())/1000)
			} else {
				fmt.Fprintf(w, " %12s\n", "n/a")
			}
		}
	}
}

// Fig7 regenerates Figure 7: memory usage after building each input.
func Fig7(w io.Writer, n int, seed uint64) {
	inputs := Inputs(n, seed)
	fmt.Fprintf(w, "# Figure 7: memory usage after build, n=%d (MiB)\n", n)
	names := make([]string, len(inputs))
	for i, t := range inputs {
		names[i] = t.Name
	}
	header(w, "structure", names)
	for _, b := range Sequential() {
		fmt.Fprintf(w, "%-14s", b.Name)
		for _, t := range inputs {
			bytes := measureMemory(func() any {
				f := b.New(t.N)
				for _, e := range gen.Shuffled(t, seed+13).Edges {
					f.Link(e.U, e.V, e.W)
				}
				return f
			})
			fmt.Fprintf(w, " %12.2f", float64(bytes)/(1<<20))
		}
		fmt.Fprintln(w)
	}
}

// measureMemory reports the live-heap growth caused by build's result.
func measureMemory(build func() any) int64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// Fig8 regenerates Figure 8: parallel batch-dynamic update speed with
// batch size k.
func Fig8(w io.Writer, n, k int, seed uint64, withGraphs bool) {
	inputs := Inputs(n, seed)
	if withGraphs {
		inputs = append(inputs, GraphInputs(n/4, seed+100)...)
	}
	fmt.Fprintf(w, "# Figure 8: parallel batch update speed, n=%d, k=%d (build + destroy, ms)\n", n, k)
	names := make([]string, len(inputs))
	for i, t := range inputs {
		names[i] = t.Name
	}
	header(w, "structure", names)
	for _, b := range Parallel() {
		fmt.Fprintf(w, "%-14s", b.Name)
		for _, t := range inputs {
			f := b.New(t.N).(ufotree.BatchForest)
			f.SetWorkers(0)
			d := buildDestroyBatch(f, t, k, seed+17)
			fmt.Fprintf(w, " %12.1f", float64(d.Microseconds())/1000)
		}
		fmt.Fprintln(w)
	}
}

// Fig9 regenerates Figure 9: UFO-tree scaling with n at fixed batch size.
func Fig9(w io.Writer, ns []int, k int, seed uint64) {
	fmt.Fprintf(w, "# Figure 9: UFO batch build+destroy vs n, k=%d (ms)\n", k)
	header(w, "n", []string{"path", "binary", "64-ary", "star"})
	for _, n := range ns {
		inputs := []gen.Tree{gen.Path(n), gen.Binary(n), gen.KAry(n, 64), gen.Star(n)}
		fmt.Fprintf(w, "%-14d", n)
		for _, t := range inputs {
			f := ufotree.NewUFO(t.N)
			f.SetWorkers(0)
			d := buildDestroyBatch(f, t, k, seed+19)
			fmt.Fprintf(w, " %12.1f", float64(d.Microseconds())/1000)
		}
		fmt.Fprintln(w)
	}
}

// Fig16 regenerates Figure 16 (Appendix D.3): the parallel diameter sweep.
func Fig16(w io.Writer, n, k int, alphas []float64, seed uint64) {
	fmt.Fprintf(w, "# Figure 16: parallel diameter sweep, n=%d, k=%d (build+destroy ms)\n", n, k)
	names := make([]string, 0, len(alphas))
	trees := make([]gen.Tree, 0, len(alphas))
	for _, a := range alphas {
		t := gen.Zipf(n, a, seed)
		trees = append(trees, t)
		names = append(names, fmt.Sprintf("a=%.1f", a))
	}
	header(w, "structure", names)
	for _, b := range Parallel() {
		fmt.Fprintf(w, "%-14s", b.Name)
		for _, t := range trees {
			f := b.New(t.N).(ufotree.BatchForest)
			f.SetWorkers(0)
			d := buildDestroyBatch(f, t, k, seed+23)
			fmt.Fprintf(w, " %12.1f", float64(d.Microseconds())/1000)
		}
		fmt.Fprintln(w)
	}
}

// Table1 prints the capability/cost matrix of Table 1, measured rather than
// asserted: for each structure it reports which operations are supported
// and the empirical update-cost growth on low-diameter (star) vs
// logarithmic (path) inputs.
func Table1(w io.Writer, n int, seed uint64) {
	fmt.Fprintf(w, "# Table 1: operations supported and diameter adaptivity (n=%d)\n", n)
	fmt.Fprintf(w, "%-14s %9s %9s %7s %9s %22s\n",
		"structure", "batch", "path", "subtree", "ternary", "star-vs-path speedup")
	star, path := gen.Star(n), gen.Path(n)
	for _, b := range Sequential() {
		f := b.New(n)
		_, hasPath := f.(ufotree.PathQuerier)
		_, hasSub := f.(ufotree.SubtreeQuerier)
		ternary := b.Name == "topology" || b.Name == "rc"
		dStar := buildDestroy(b.New(n), star, seed)
		dPath := buildDestroy(b.New(n), path, seed)
		ratio := float64(dPath.Nanoseconds()) / float64(dStar.Nanoseconds())
		fmt.Fprintf(w, "%-14s %9v %9v %7v %9v %21.2fx\n",
			b.Name, b.Batch, hasPath, hasSub, ternary, ratio)
	}
	fmt.Fprintln(w, "# (speedup > 1 means the structure runs faster on the diameter-2 star;")
	fmt.Fprintln(w, "#  the paper proves O(min{log n, D}) for UFO and O(min{log n, D^2}) for link-cut)")
}

// Table2 prints the dataset summary of Table 2 for the graph stand-ins.
func Table2(w io.Writer, n int, seed uint64) {
	fmt.Fprintf(w, "# Table 2: graph datasets (synthetic stand-ins, see internal/gen)\n")
	for _, g := range gen.StandardGraphs(n, seed) {
		bfs := gen.BFSForest(g, seed+10)
		fmt.Fprintf(w, "%s  bfs-diam=%-6d\n", gen.Describe(g), gen.Diameter(bfs))
	}
}
