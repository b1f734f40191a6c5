// Batch loading: build a large forest with batch updates (the paper's
// parallel workload, Figure 8/9) and compare against one-at-a-time links,
// across the batch-dynamic structures in the library.
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/gen"
)

func main() {
	const (
		n = 200000
		k = 20000 // batch size
	)
	tree := gen.Shuffled(gen.PrefAttach(n, 11), 12)

	structures := []struct {
		name string
		mk   func() ufotree.BatchForest
	}{
		{"ufo", func() ufotree.BatchForest { return ufotree.NewUFO(n) }},
		{"ett-treap", func() ufotree.BatchForest { return ufotree.NewETTTreap(n, 1) }},
		{"topology", func() ufotree.BatchForest { return ufotree.NewTopology(n) }},
	}

	links := make([]ufotree.Edge, len(tree.Edges))
	for i, e := range tree.Edges {
		links[i] = ufotree.Edge{U: e.U, V: e.V, W: e.W}
	}

	fmt.Printf("building a %d-vertex preferential-attachment tree, batch size %d\n\n", n, k)
	fmt.Printf("%-12s %14s %14s\n", "structure", "sequential", "batched")
	for _, s := range structures {
		f := s.mk()
		start := time.Now()
		for _, e := range links {
			f.Link(e.U, e.V, e.W)
		}
		seq := time.Since(start)

		f = s.mk()
		f.SetWorkers(0)
		start = time.Now()
		for lo := 0; lo < len(links); lo += k {
			hi := lo + k
			if hi > len(links) {
				hi = len(links)
			}
			f.BatchLink(links[lo:hi])
		}
		bat := time.Since(start)
		if !f.Connected(0, n-1) {
			panic("batch build incomplete")
		}
		fmt.Printf("%-12s %12.1fms %12.1fms\n", s.name,
			float64(seq.Microseconds())/1000, float64(bat.Microseconds())/1000)
	}
	fmt.Println("\n(batched updates amortize tree maintenance across the batch;")
	fmt.Println(" on many-core machines they additionally run in parallel)")
}
