package ufo

import (
	"testing"

	"repro/internal/admit"
	"repro/internal/gen"
	"repro/internal/refforest"
	"repro/internal/rng"
)

// mkRef builds a synthetic EdgeRef whose key encodes (u,v). Handles don't
// matter for edgeSet unit tests; keys just have to be nonzero and distinct,
// which admit.Key guarantees for distinct vertex pairs.
func mkRef(u, v int32) EdgeRef {
	return EdgeRef{key: admit.Key(int(u), int(v)), w: int64(u)*100 + int64(v), myV: u, otherV: v}
}

// TestEdgeSetOverflowCompaction is the regression test for the edgeSet
// shrink bug: removals used to leave survivors stranded in the overflow
// table, so a cluster whose degree spiked once kept paying the overflow
// allocation forever. Now remove refills freed inline slots from the
// overflow and releases the table when it drains.
func TestEdgeSetOverflowCompaction(t *testing.T) {
	var s edgeSet
	for v := int32(1); v <= 12; v++ {
		if !s.insert(mkRef(0, v)) {
			t.Fatalf("insert(0,%d) reported duplicate", v)
		}
	}
	if s.degree() != 12 {
		t.Fatalf("degree = %d, want 12", s.degree())
	}
	if s.ov == nil {
		t.Fatal("12 edges should have spilled into the overflow table")
	}

	// Remove eight edges: degree drops to 4, so every survivor fits inline
	// and the overflow table must be gone.
	for v := int32(1); v <= 8; v++ {
		if !s.remove(admit.Key(0, int(v))) {
			t.Fatalf("remove(0,%d) missed", v)
		}
	}
	if s.degree() != 4 {
		t.Fatalf("degree = %d, want 4", s.degree())
	}
	if s.ov != nil {
		t.Fatalf("overflow table not released after shrinking to degree 4 (ov.n=%d)", s.ov.n)
	}
	for v := int32(9); v <= 12; v++ {
		e, ok := s.get(admit.Key(0, int(v)))
		if !ok || e.otherV != v {
			t.Fatalf("survivor (0,%d) lost during compaction: got %+v ok=%v", v, e, ok)
		}
	}

	// A compacted set is back on the inline path: churning while staying
	// at degree ≤ 4 must not allocate at all.
	allocs := testing.AllocsPerRun(100, func() {
		if !s.remove(admit.Key(0, 9)) || !s.remove(admit.Key(0, 10)) {
			t.Fatal("churn remove missed")
		}
		s.insert(mkRef(0, 50))
		s.insert(mkRef(0, 51))
		if !s.remove(admit.Key(0, 50)) || !s.remove(admit.Key(0, 51)) {
			t.Fatal("churn remove missed")
		}
		s.insert(mkRef(0, 9))
		s.insert(mkRef(0, 10))
	})
	if allocs != 0 {
		t.Fatalf("degree-4 insert/remove churn allocated %.1f/op after compaction, want 0", allocs)
	}
}

// TestEdgeSetOverflowPartialDrain checks the intermediate regime: dropping
// from deep overflow to degree 6 keeps the table but must still refill all
// four inline slots, so the inline fast path serves its share of lookups.
func TestEdgeSetOverflowPartialDrain(t *testing.T) {
	var s edgeSet
	for v := int32(1); v <= 20; v++ {
		s.insert(mkRef(0, v))
	}
	for v := int32(1); v <= 14; v++ {
		if !s.remove(admit.Key(0, int(v))) {
			t.Fatalf("remove(0,%d) missed", v)
		}
	}
	if s.degree() != 6 {
		t.Fatalf("degree = %d, want 6", s.degree())
	}
	if s.n != 4 {
		t.Fatalf("inline count = %d after refill, want 4", s.n)
	}
	if s.ov == nil || s.ov.n != 2 {
		t.Fatalf("overflow should hold exactly the 2 edges that don't fit inline")
	}
	seen := map[int32]bool{}
	s.forEach(func(e EdgeRef) bool {
		seen[e.otherV] = true
		return true
	})
	for v := int32(15); v <= 20; v++ {
		if !seen[v] {
			t.Fatalf("survivor (0,%d) missing from forEach after partial drain", v)
		}
	}
}

// churnStats runs warm+measure churn cycles that cut and relink the same
// edge set, validating (and thereby running validateArena's free-list
// integrity checks) after every batch, and returns the high-water slot
// counts observed after the warmup cycles.
func churnStats(t *testing.T, f *Forest, edges []Edge, warm, measure int) []int {
	t.Helper()
	cuts := make([][2]int, len(edges))
	for i, e := range edges {
		cuts[i] = [2]int{e.U, e.V}
	}
	var slots []int
	for cyc := 0; cyc < warm+measure; cyc++ {
		f.BatchCut(cuts)
		mustValidate(t, f, "churn after cut")
		f.BatchLink(edges)
		mustValidate(t, f, "churn after link")
		if cyc >= warm {
			slots = append(slots, f.ArenaStats().Slots)
		}
	}
	return slots
}

// TestArenaRecyclingStopsGrowth drives many batches over a fixed working
// set and asserts the arena reaches a fixed point: once the free list has
// seen one full cut/link cycle, later cycles are served entirely from
// recycled slots and the bump cursor never moves again.
func TestArenaRecyclingStopsGrowth(t *testing.T) {
	shapes := []gen.Tree{gen.Path(300), gen.PrefAttach(300, 3), gen.Star(300)}
	for _, tr := range shapes {
		t.Run(tr.Name, func(t *testing.T) {
			n := 300
			f := New(n)
			sh := gen.Shuffled(gen.WithRandomWeights(tr, 100, 9), 7)
			edges := make([]Edge, len(sh.Edges))
			for i, e := range sh.Edges {
				edges[i] = Edge{U: e.U, V: e.V, W: e.W}
			}
			f.BatchLink(edges)
			mustValidate(t, f, "initial build")

			// Churn half the tree: cut and relink the same 150 edges.
			slots := churnStats(t, f, edges[:150], 2, 6)
			for i := 1; i < len(slots); i++ {
				if slots[i] != slots[0] {
					t.Fatalf("arena kept growing under steady churn: slots %v", slots)
				}
			}

			st := f.ArenaStats()
			if st.Live != int(st.Allocs-st.Frees) {
				t.Fatalf("stats drift: live=%d allocs=%d frees=%d", st.Live, st.Allocs, st.Frees)
			}
			if st.Live+st.FreeList != st.Slots {
				t.Fatalf("stats drift: live=%d + free=%d != slots=%d", st.Live, st.FreeList, st.Slots)
			}
			// A star never releases anything: its only non-leaf cluster is
			// the center's, which survives every cut (leaves are permanent).
			if st.Frees == 0 && tr.Name != "star" {
				t.Fatal("churn produced no releases; recycling path never exercised")
			}
		})
	}
}

// TestArenaFreeListAfterDifferential mirrors the differential test's random
// op mix but validates after every single batch, so validateArena checks
// free-list zeroing and live accounting at each step against the oracle's
// view of the edge set.
func TestArenaFreeListAfterDifferential(t *testing.T) {
	n := 60
	f := New(n)
	ref := refforest.New(n)
	r := rng.New(99)
	var live [][2]int
	for step := 0; step < 400; step++ {
		u, v := r.Intn(n), r.Intn(n)
		switch {
		case r.Bool() && !ref.Connected(u, v):
			w := int64(r.Intn(1000))
			f.Link(u, v, w)
			ref.Link(u, v, w)
			live = append(live, [2]int{u, v})
		case len(live) > 0:
			i := r.Intn(len(live))
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			f.Cut(e[0], e[1])
			ref.Cut(e[0], e[1])
		default:
			continue
		}
		mustValidate(t, f, "differential free-list step")
	}
	st := f.ArenaStats()
	if st.Live != int(st.Allocs-st.Frees) {
		t.Fatalf("stats drift after differential: %+v", st)
	}
}

// TestSteadyStateBatchesAllocationFree pins the headline arena property:
// once the working set has stabilized, a batch update heap-allocates
// (almost) nothing — clusters come from the free list and the engine's
// scratch buffers are reused across runs.
func TestSteadyStateBatchesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := 500
	f := New(n)
	f.SetWorkers(1)
	tr := gen.PrefAttach(n, 3)
	sh := gen.Shuffled(gen.WithRandomWeights(tr, 100, 9), 7)
	edges := make([]Edge, 0, 120)
	for _, e := range sh.Edges {
		f.Link(e.U, e.V, e.W)
	}
	for _, e := range sh.Edges[:120] {
		edges = append(edges, Edge{U: e.U, V: e.V, W: e.W})
	}
	cuts := make([][2]int, len(edges))
	for i, e := range edges {
		cuts[i] = [2]int{e.U, e.V}
	}

	// Warm up: let every scratch buffer, queue, recycled children array,
	// and the free list reach its steady-state capacity.
	for i := 0; i < 16; i++ {
		f.BatchCut(cuts)
		f.BatchLink(edges)
	}

	allocs := testing.AllocsPerRun(10, func() {
		f.BatchCut(cuts)
		f.BatchLink(edges)
	})
	perBatch := allocs / 2 // two batches per run
	if perBatch >= 1 {
		t.Fatalf("steady-state batch allocates %.1f objects/batch, want < 1", perBatch)
	}
	mustValidate(t, f, "steady-state end")
}
