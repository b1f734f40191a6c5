// Benchmarks regenerating every table and figure of the paper at go-test
// scale. One benchmark per experiment artifact; `go test -bench=.` runs the
// full set, and cmd/ufobench runs them at larger sizes with report tables.
package ufotree_test

import (
	"fmt"
	"io"
	"testing"

	"repro"
	"repro/internal/bench"
	"repro/internal/gen"
)

const benchN = 20000

// skipInShort gates the heavyweight paper-regeneration benchmarks so the
// CI test job (-short) stays fast; the bench smoke job still runs each of
// them once via `go test -run NONE -bench . -benchtime 1x`.
func skipInShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("heavy experiment benchmark skipped in -short")
	}
}

// BenchmarkBatchScaling is the self-relative scaling experiment of the
// parallel batch-update engine: batched build+destroy throughput of the
// UFO tree at worker counts 1..GOMAXPROCS (plus oversubscribed counts on
// small hosts), batches of benchN/2 ≥ 10k edges. Compare the workers=1 and
// workers=GOMAXPROCS variants for the self-relative speedup.
func BenchmarkBatchScaling(b *testing.B) {
	t := gen.PrefAttach(benchN, 44)
	k := benchN / 2
	for _, workers := range bench.DefaultWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			links := make([]ufotree.Edge, 0, len(t.Edges))
			for _, e := range gen.Shuffled(t, 45).Edges {
				links = append(links, ufotree.Edge{U: e.U, V: e.V, W: e.W})
			}
			cuts := make([]ufotree.Edge, 0, len(t.Edges))
			for _, e := range gen.Shuffled(t, 46).Edges {
				cuts = append(cuts, ufotree.Edge{U: e.U, V: e.V})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := ufotree.NewUFO(t.N)
				f.SetWorkers(workers)
				for lo := 0; lo < len(links); lo += k {
					hi := lo + k
					if hi > len(links) {
						hi = len(links)
					}
					f.BatchLink(links[lo:hi])
				}
				for lo := 0; lo < len(cuts); lo += k {
					hi := lo + k
					if hi > len(cuts) {
						hi = len(cuts)
					}
					f.BatchCut(cuts[lo:hi])
				}
			}
			b.ReportMetric(float64(2*len(t.Edges)*b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkTable1 measures the star-vs-path adaptivity matrix of Table 1.
func BenchmarkTable1(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard, benchN/2, 42)
	}
}

// BenchmarkTable2 regenerates the dataset summary of Table 2.
func BenchmarkTable2(b *testing.B) {
	skipInShort(b)
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard, benchN/4, 42)
	}
}

// Figure 5: one benchmark per structure over the synthetic input set.
func benchmarkFig5(b *testing.B, name string) {
	skipInShort(b)
	var builder bench.Builder
	for _, s := range bench.Sequential() {
		if s.Name == name {
			builder = s
		}
	}
	inputs := bench.Inputs(benchN, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range inputs {
			f := builder.New(t.N)
			for _, e := range gen.Shuffled(t, 7).Edges {
				f.Link(e.U, e.V, e.W)
			}
			for _, e := range gen.Shuffled(t, 8).Edges {
				f.Cut(e.U, e.V)
			}
		}
	}
}

func BenchmarkFig5LinkCut(b *testing.B)     { benchmarkFig5(b, "link-cut") }
func BenchmarkFig5UFO(b *testing.B)         { benchmarkFig5(b, "ufo") }
func BenchmarkFig5ETTTreap(b *testing.B)    { benchmarkFig5(b, "ett-treap") }
func BenchmarkFig5ETTSplay(b *testing.B)    { benchmarkFig5(b, "ett-splay") }
func BenchmarkFig5ETTSkipList(b *testing.B) { benchmarkFig5(b, "ett-skiplist") }
func BenchmarkFig5Topology(b *testing.B)    { benchmarkFig5(b, "topology") }
func BenchmarkFig5RC(b *testing.B)          { benchmarkFig5(b, "rc") }

// Figure 6: diameter sweep — updates and queries at the two extremes of the
// Zipf parameter.
func benchmarkFig6(b *testing.B, alpha float64) {
	skipInShort(b)
	t := gen.Zipf(benchN, alpha, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range bench.Sequential() {
			f := s.New(t.N)
			for _, e := range gen.Shuffled(t, 10).Edges {
				f.Link(e.U, e.V, e.W)
			}
			for q := 0; q < 2000; q++ {
				f.Connected(q%benchN, (q*7)%benchN)
			}
			if pq, ok := f.(ufotree.PathQuerier); ok {
				for q := 0; q < 2000; q++ {
					pq.PathSum(q%benchN, (q*7)%benchN)
				}
			}
		}
	}
}

func BenchmarkFig6HighDiameter(b *testing.B) { benchmarkFig6(b, 0.0) }
func BenchmarkFig6LowDiameter(b *testing.B)  { benchmarkFig6(b, 2.0) }

// BenchmarkFig7Memory reports bytes/vertex for each structure on the
// random-attachment input (allocation-focused benchmark).
func BenchmarkFig7Memory(b *testing.B) {
	skipInShort(b)
	t := gen.RandomAttach(benchN, 11)
	for _, s := range bench.Sequential() {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := s.New(t.N)
				for _, e := range t.Edges {
					f.Link(e.U, e.V, e.W)
				}
			}
		})
	}
}

// Figure 8: batch updates with k = n/10 per structure.
func benchmarkFig8(b *testing.B, name string) {
	skipInShort(b)
	var builder bench.Builder
	for _, s := range bench.Parallel() {
		if s.Name == name {
			builder = s
		}
	}
	inputs := bench.Inputs(benchN, 42)
	k := benchN / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range inputs {
			f := builder.New(t.N).(ufotree.BatchForest)
			f.SetWorkers(0)
			links := make([]ufotree.Edge, 0, len(t.Edges))
			for _, e := range gen.Shuffled(t, 12).Edges {
				links = append(links, ufotree.Edge{U: e.U, V: e.V, W: e.W})
			}
			for lo := 0; lo < len(links); lo += k {
				hi := lo + k
				if hi > len(links) {
					hi = len(links)
				}
				f.BatchLink(links[lo:hi])
			}
			cuts := make([]ufotree.Edge, 0, len(t.Edges))
			for _, e := range gen.Shuffled(t, 13).Edges {
				cuts = append(cuts, ufotree.Edge{U: e.U, V: e.V})
			}
			for lo := 0; lo < len(cuts); lo += k {
				hi := lo + k
				if hi > len(cuts) {
					hi = len(cuts)
				}
				f.BatchCut(cuts[lo:hi])
			}
		}
	}
}

func BenchmarkFig8UFO(b *testing.B)      { benchmarkFig8(b, "ufo") }
func BenchmarkFig8ETTTreap(b *testing.B) { benchmarkFig8(b, "ett-treap") }
func BenchmarkFig8Topology(b *testing.B) { benchmarkFig8(b, "topology") }
func BenchmarkFig8RC(b *testing.B)       { benchmarkFig8(b, "rc") }

// BenchmarkFig9Scaling: UFO batch build+destroy across input sizes.
func BenchmarkFig9Scaling(b *testing.B) {
	skipInShort(b)
	for _, n := range []int{benchN / 4, benchN, benchN * 4} {
		t := gen.Star(n)
		b.Run(t.Name+"/"+itoa(n), func(b *testing.B) {
			k := n / 10
			for i := 0; i < b.N; i++ {
				f := ufotree.NewUFO(n)
				f.SetWorkers(0)
				links := make([]ufotree.Edge, 0, len(t.Edges))
				for _, e := range gen.Shuffled(t, 14).Edges {
					links = append(links, ufotree.Edge{U: e.U, V: e.V, W: 1})
				}
				for lo := 0; lo < len(links); lo += k {
					hi := lo + k
					if hi > len(links) {
						hi = len(links)
					}
					f.BatchLink(links[lo:hi])
				}
			}
		})
	}
}

// BenchmarkFig16ParallelSweep: batch updates across the diameter sweep.
func BenchmarkFig16ParallelSweep(b *testing.B) {
	skipInShort(b)
	for _, alpha := range []float64{0.0, 2.0} {
		t := gen.Zipf(benchN, alpha, 15)
		b.Run("alpha="+ftoa(alpha), func(b *testing.B) {
			k := benchN / 10
			for i := 0; i < b.N; i++ {
				for _, s := range bench.Parallel() {
					f := s.New(t.N).(ufotree.BatchForest)
					f.SetWorkers(0)
					links := make([]ufotree.Edge, 0, len(t.Edges))
					for _, e := range gen.Shuffled(t, 16).Edges {
						links = append(links, ufotree.Edge{U: e.U, V: e.V, W: e.W})
					}
					for lo := 0; lo < len(links); lo += k {
						hi := lo + k
						if hi > len(links) {
							hi = len(links)
						}
						f.BatchLink(links[lo:hi])
					}
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	if f == float64(int(f)) {
		return itoa(int(f)) + ".0"
	}
	return itoa(int(f)) + ".5"
}
