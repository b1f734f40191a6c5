package conn

import (
	"fmt"
	"testing"

	"repro/internal/admit"
	"repro/internal/rng"
)

// Sparse, road-shaped differential coverage: graphs whose deletes
// routinely have NO replacement edge (bridges, trees, long paths), so the
// search sweeps pieces to exhaustion and the push-down machinery carries
// the cost. Every batch is followed by an oracle comparison and a full
// structural Validate (level invariants included).

// sparseShapes builds the adversarial sparse graphs, each as a simple
// edge list over n vertices.
func sparseShapes(n int, r *rng.SplitMix64) map[string][]Edge {
	shapes := make(map[string][]Edge)

	path := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		path = append(path, Edge{v - 1, v})
	}
	shapes["long-path"] = path

	tree := make([]Edge, 0, n-1)
	for v := 1; v < n; v++ {
		tree = append(tree, Edge{r.Intn(v), v})
	}
	shapes["random-tree"] = tree

	// A grid with a handful of chords: almost every edge is a bridge or
	// close to one, and the few chords make some searches succeed.
	side := 1
	for side*side < n {
		side++
	}
	id := func(x, y int) int { return (x*side + y) % n }
	var grid []Edge
	seen := map[uint64]struct{}{}
	addE := func(u, v int) {
		if u == v {
			return
		}
		k := admit.Key(u, v)
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		grid = append(grid, Edge{u, v})
	}
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			if id(x, y) >= n-side {
				continue
			}
			if x+1 < side {
				addE(id(x, y), id(x+1, y))
			}
			if y+1 < side {
				addE(id(x, y), id(x, y+1))
			}
		}
	}
	for i := 0; i < n/20; i++ {
		addE(r.Intn(n), r.Intn(n))
	}
	shapes["bridgy-grid"] = grid
	return shapes
}

// TestSparseDifferentialSuite churns each sparse shape at every worker
// count against the union-find oracle, validating the level invariants
// after every batch. Delete batches are biased toward tree edges, which on
// these shapes means mostly bridges: the replacement search fails, pieces
// are swept to exhaustion, and edges must still never be rescanned at a
// level (Validate checks the structural half; TestNoRescanPerLevel checks
// the accounting half).
func TestSparseDifferentialSuite(t *testing.T) {
	lowGrains(t)
	oldChunk := sweepChunkBase
	sweepChunkBase = 4 // many chunks per sweep, even on small pieces
	t.Cleanup(func() { sweepChunkBase = oldChunk })

	const n = 220
	for _, workers := range []int{1, 2, 4, 8} {
		shapes := sparseShapes(n, rng.New(77))
		for name, base := range shapes {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				g := New(n)
				g.SetWorkers(workers)
				o := newOracle(n)
				r := rng.New(uint64(4000 + workers))
				g.BatchAddEdges(base)
				o.add(base)
				checkAgainstOracle(t, g, o, r)
				if err := g.Validate(); err != nil {
					t.Fatalf("Validate after build: %v", err)
				}
				for round := 0; round < 8; round++ {
					churn(t, g, o, r, 25, 45)
					if err := g.Validate(); err != nil {
						t.Fatalf("Validate after round %d: %v", round, err)
					}
				}
			})
		}
	}
}

// edgeLevelObs keys one consumption observation: an edge, the level it was
// consumed at, and the edge's insertion epoch (re-adding an edge starts a
// fresh epoch — the no-rescan guarantee is per insertion).
type edgeLevelObs struct {
	k     uint64
	level int
	epoch int
}

// TestNoRescanPerLevel pins the amortization contract behind the level
// structure: across a churn run, no edge is consumed twice at the same
// level within one insertion epoch — a non-tree edge scanned at level i is
// either promoted, demoted, or pushed to level i+1, and a tree edge is
// pushed off level i at most once. The hooks fire exactly on consumption,
// so a violation means a sweep rescanned something it had already paid
// for. Runs at every worker count (the deterministic-sweep contract means
// the observation streams are also identical, but this test only needs
// the at-most-once property).
func TestNoRescanPerLevel(t *testing.T) {
	lowGrains(t)
	oldChunk := sweepChunkBase
	sweepChunkBase = 4
	t.Cleanup(func() { sweepChunkBase = oldChunk })

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const (
				n      = 360
				batch  = 90
				rounds = 12
			)
			epoch := make(map[uint64]int)
			ntSeen := make(map[edgeLevelObs]bool)
			teSeen := make(map[edgeLevelObs]bool)
			observe := func(seen map[edgeLevelObs]bool, class string, u, v, level int) {
				o := edgeLevelObs{k: admit.Key(u, v), level: level, epoch: epoch[admit.Key(u, v)]}
				if seen[o] {
					t.Errorf("%s edge (%d,%d) consumed twice at level %d in epoch %d",
						class, u, v, level, o.epoch)
				}
				seen[o] = true
			}
			ntPushHook = func(u, v, fromLevel int) { observe(ntSeen, "non-tree", u, v, fromLevel) }
			tePushHook = func(u, v, fromLevel int) { observe(teSeen, "tree", u, v, fromLevel) }
			promoteHook = func(u, v, level int) { observe(ntSeen, "promoted", u, v, level) }
			demoteHook = func(u, v, fromLevel, _ int) {
				observe(ntSeen, "demoted", u, v, fromLevel)
				epoch[admit.Key(u, v)]++ // the defensive path re-buckets the edge: fresh epoch
			}
			t.Cleanup(func() {
				ntPushHook, tePushHook, promoteHook, demoteHook = nil, nil, nil, nil
			})

			// Road-shaped churn: a grid plus sparse chords, deleted and
			// re-added in random batches. Every re-add bumps the edge's
			// epoch.
			r := rng.New(uint64(6000 + workers))
			edges := sparseShapes(n, rng.New(88))["bridgy-grid"]
			g := New(n)
			g.SetWorkers(workers)
			g.BatchAddEdges(edges)
			for round := 0; round < rounds; round++ {
				perm := r.Perm(len(edges))
				churn := make([]Edge, batch)
				for i := range churn {
					churn[i] = edges[perm[i]]
				}
				g.BatchDeleteEdges(churn)
				for _, e := range churn {
					epoch[admit.Key(e.U, e.V)]++
				}
				g.BatchAddEdges(churn)
			}
			if g.MaxLevelUsed() == 0 {
				t.Fatal("churn never pushed past level 0: the property was tested vacuously")
			}
		})
	}
}

// TestNewWithLevelsClamp pins the constructor's depth clamping and the
// lazy materialization bookkeeping around it.
func TestNewWithLevelsClamp(t *testing.T) {
	def := DefaultLevels(1000)
	if got := NewWithLevels(1000, 0).Levels(); got != def {
		t.Fatalf("levels<=0 must select the default %d, got %d", def, got)
	}
	if got := NewWithLevels(1000, def+7).Levels(); got != def {
		t.Fatalf("oversized depth must clamp to %d, got %d", def, got)
	}
	if got := NewWithLevels(1000, 1).Levels(); got != 1 {
		t.Fatalf("levels=1 must stick, got %d", got)
	}
	if got := New(1).Levels(); got != 1 {
		t.Fatalf("n=1 must build a single level, got %d", got)
	}
	g := NewWithLevels(64, 3)
	if g.MaxLevelUsed() != 0 {
		t.Fatalf("fresh structure must only have level 0 materialized, MaxLevelUsed=%d", g.MaxLevelUsed())
	}
}

// TestSingleLevelDegradation: WithLevels(1) must behave exactly like a
// plain single-forest search (no push-downs possible) and still agree with
// the oracle under churn.
func TestSingleLevelDegradation(t *testing.T) {
	lowGrains(t)
	const n = 150
	g := NewWithLevels(n, 1)
	g.SetWorkers(2)
	o := newOracle(n)
	r := rng.New(42)
	for round := 0; round < 10; round++ {
		churn(t, g, o, r, 40, 30)
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
	}
	if g.MaxLevelUsed() != 0 {
		t.Fatalf("single-level structure pushed to level %d", g.MaxLevelUsed())
	}
	st := g.PhaseStats()
	if st.Depth != 1 {
		t.Fatalf("Depth = %d, want 1", st.Depth)
	}
}

// TestDeepPushDown drives enough churn on a path-heavy graph to
// materialize multiple levels, then checks the telemetry and invariants
// actually reflect the depth reached.
func TestDeepPushDown(t *testing.T) {
	lowGrains(t)
	oldChunk := sweepChunkBase
	sweepChunkBase = 4
	t.Cleanup(func() { sweepChunkBase = oldChunk })

	const n = 256
	edges := sparseShapes(n, rng.New(99))["bridgy-grid"]
	g := New(n)
	g.SetWorkers(2)
	g.BatchAddEdges(edges)
	r := rng.New(7)
	var agg PhaseStats
	for round := 0; round < 15; round++ {
		perm := r.Perm(len(edges))
		churn := make([]Edge, 60)
		for i := range churn {
			churn[i] = edges[perm[i]]
		}
		g.BatchDeleteEdges(churn)
		agg.Accumulate(g.PhaseStats())
		g.BatchAddEdges(churn)
	}
	if g.MaxLevelUsed() < 1 {
		t.Fatalf("MaxLevelUsed = %d, want >= 1 after push-down churn", g.MaxLevelUsed())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after deep churn: %v", err)
	}
	if agg.Depth != DefaultLevels(n) {
		t.Fatalf("aggregated Depth = %d, want %d", agg.Depth, DefaultLevels(n))
	}
	if len(agg.PerLevel) < 2 {
		t.Fatalf("PerLevel rows = %d, want >= 2 (levels actually searched)", len(agg.PerLevel))
	}
	var pushed int64
	for _, ls := range agg.PerLevel {
		pushed += ls.TreePushed + ls.NontreePushed
		if ls.Scanned < 0 || ls.Sweeps < 0 {
			t.Fatalf("negative level telemetry: %+v", ls)
		}
	}
	if pushed == 0 {
		t.Fatal("no push-downs recorded despite MaxLevelUsed > 0")
	}
}
