package ufotree

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestDynamicMSFFacade drives the facade end to end: construction options,
// batch adds with swaps, tree-edge enumeration, deletes with min-weight
// replacement, and the telemetry mapping.
func TestDynamicMSFFacade(t *testing.T) {
	m := NewDynamicMSF(6, WithWorkers(2))
	if m.N() != 6 || m.Workers() != 2 || m.Name() != "ufo-msf" {
		t.Fatalf("construction wrong: n=%d workers=%d name=%q", m.N(), m.Workers(), m.Name())
	}
	if err := m.AddEdges([]Edge{
		{U: 0, V: 1, W: 4}, {U: 1, V: 2, W: 8}, {U: 2, V: 3, W: 2}, {U: 4, V: 5, W: 7},
	}); err != nil {
		t.Fatalf("valid add rejected: %v", err)
	}
	if m.TotalWeight() != 21 || m.ComponentCount() != 2 || m.EdgeCount() != 4 {
		t.Fatalf("seed state wrong: total=%d comps=%d edges=%d",
			m.TotalWeight(), m.ComponentCount(), m.EdgeCount())
	}
	// (0,2,w=3) beats the heaviest path edge (1,2,w=8): swap.
	if err := m.AddEdges([]Edge{{U: 0, V: 2, W: 3}}); err != nil {
		t.Fatalf("swap add rejected: %v", err)
	}
	if !m.IsTreeEdge(0, 2) || m.IsTreeEdge(1, 2) || m.TotalWeight() != 16 {
		t.Fatalf("swap wrong: tree(0,2)=%v tree(1,2)=%v total=%d",
			m.IsTreeEdge(0, 2), m.IsTreeEdge(1, 2), m.TotalWeight())
	}
	if !m.HasEdge(1, 2) {
		t.Fatalf("evicted edge must stay as non-tree")
	}
	if w, ok := m.EdgeWeight(2, 1); !ok || w != 8 {
		t.Fatalf("EdgeWeight(2,1) = %d,%v", w, ok)
	}
	te := m.TreeEdges()
	if !sort.SliceIsSorted(te, func(i, j int) bool {
		return te[i].U < te[j].U || (te[i].U == te[j].U && te[i].V < te[j].V)
	}) {
		t.Fatalf("TreeEdges not sorted by key: %v", te)
	}
	// Deleting the tree edge (0,2) promotes the evicted (1,2,w=8) back.
	if err := m.DeleteEdges([]Edge{{U: 0, V: 2}}); err != nil {
		t.Fatalf("valid delete rejected: %v", err)
	}
	if !m.IsTreeEdge(1, 2) || m.TotalWeight() != 21 {
		t.Fatalf("replacement wrong: tree(1,2)=%v total=%d", m.IsTreeEdge(1, 2), m.TotalWeight())
	}
	st := m.PhaseStats()
	if st.Batches != 1 || st.Cuts != 1 || st.SearchRounds == 0 {
		t.Fatalf("PhaseStats mapping wrong: %+v", st)
	}
	if st.Levels != 0 || st.Depth != 0 {
		t.Fatalf("MSF snapshots must leave forest/graph-vocabulary counters zero: %+v", st)
	}
	names := make([]string, len(st.Phases))
	for i, p := range st.Phases {
		names[i] = p.Name
	}
	if want := "classify cycle_max swap forest_cut search promote forest_link nontree"; strings.Join(names, " ") != want {
		t.Fatalf("phase vocabulary = %v", names)
	}
	if u, ok := UnderlyingMSF(m); !ok || u.TreeEdgeCount() != 4 {
		t.Fatalf("UnderlyingMSF escape hatch broken")
	}
	pairs := [][2]int{{0, 3}, {0, 4}, {4, 5}}
	got := m.BatchConnected(pairs)
	if !got[0] || got[1] || !got[2] {
		t.Fatalf("BatchConnected = %v", got)
	}
}

// TestDynamicMSFAdmissionErrors pins the error-returning admission API:
// each violation class is reported as its typed error (errors.Is), names
// the offending edge, and leaves the forest untouched — asserted against a
// full pre-call snapshot (tree edges, total weight, counts), not just
// counts.
func TestDynamicMSFAdmissionErrors(t *testing.T) {
	m := NewDynamicMSF(5)
	if err := m.AddEdges([]Edge{{U: 0, V: 1, W: 6}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 9}}); err != nil {
		t.Fatalf("valid add rejected: %v", err)
	}
	snap := func() string {
		return fmt.Sprint(m.TreeEdges(), m.TotalWeight(), m.EdgeCount(), m.ComponentCount())
	}
	before := snap()
	check := func(got error, want error, wantIn string) {
		t.Helper()
		if !errors.Is(got, want) {
			t.Fatalf("error %v, want errors.Is(%v)", got, want)
		}
		if !strings.Contains(got.Error(), wantIn) {
			t.Fatalf("error %q does not name the offender %q", got, wantIn)
		}
		if after := snap(); after != before {
			t.Fatalf("forest mutated across rejected batch (%v):\n before %s\n after  %s", got, before, after)
		}
	}
	check(m.AddEdges([]Edge{{U: 2, V: 2, W: 1}}), ErrSelfLoop, "(2,2)")
	check(m.AddEdges([]Edge{{U: 1, V: 0, W: 5}}), ErrDuplicateEdge, "(1,0)")
	check(m.AddEdges([]Edge{{U: 2, V: 3, W: 1}, {U: 3, V: 2, W: 2}}), ErrDuplicateEdge, "(3,2)")
	check(m.AddEdges([]Edge{{U: 0, V: 5, W: 1}}), ErrVertexRange, "5")
	check(m.AddEdges([]Edge{{U: -1, V: 0, W: 1}}), ErrVertexRange, "-1")
	check(m.DeleteEdges([]Edge{{U: 1, V: 3}}), ErrAbsentCut, "(1,3)")
	check(m.DeleteEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 0}}), ErrAbsentCut, "(1,0)")
	check(m.DeleteEdges([]Edge{{U: 3, V: 3}}), ErrSelfLoop, "(3,3)")
	check(m.DeleteEdges([]Edge{{U: 0, V: 9}}), ErrVertexRange, "9")
	// A same-batch cut of an edge this very batch would add is two
	// different violations depending on the side: the add side rejects the
	// repeat, the delete side rejects the absence — either way the batch
	// dies before mutation.
	check(m.DeleteEdges([]Edge{{U: 0, V: 1}, {U: 3, V: 4}}), ErrAbsentCut, "(3,4)")
}

// TestDynamicMSFMustPanics pins the Must wrappers' pre-mutation panic
// contract (the msf package tests the full matrix).
func TestDynamicMSFMustPanics(t *testing.T) {
	m := NewDynamicMSF(4)
	m.MustAddEdges([]Edge{{U: 0, V: 1, W: 2}})
	mustPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic (want %q)", want)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("panic %v does not contain %q", r, want)
			}
			if m.EdgeCount() != 1 || m.TotalWeight() != 2 {
				t.Fatalf("forest mutated across recovered panic %v", r)
			}
		}()
		fn()
	}
	mustPanic("self loop", func() { m.MustAddEdges([]Edge{{U: 2, V: 2, W: 1}}) })
	mustPanic("duplicate edge", func() { m.MustAddEdges([]Edge{{U: 1, V: 0, W: 5}}) })
	mustPanic("absent edge", func() { m.MustDeleteEdges([]Edge{{U: 1, V: 2}}) })
	mustPanic("repeated in batch", func() { m.MustAddEdges([]Edge{{U: 2, V: 3, W: 1}, {U: 3, V: 2, W: 1}}) })
}

// TestMSFPromotesMinWeightWhereGraphTakesMinKey is the regression pin for
// the one behavioral split between the two replacement searches: on the
// same topology — two candidates crossing the same cut, where the
// minimum-KEY crossing edge is not the minimum-WEIGHT one — DynamicGraph's
// connectivity search promotes the min-key edge (any replacement restores
// connectivity) while DynamicMSF must promote the min-weight edge (only
// the lightest preserves minimality).
func TestMSFPromotesMinWeightWhereGraphTakesMinKey(t *testing.T) {
	// Spine 0-1-2-3; candidates across the (1,2) cut: (0,3) has the
	// smaller key, (1,3) the smaller weight.
	spine := []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}}
	cands := []Edge{{U: 0, V: 3, W: 9}, {U: 1, V: 3, W: 2}}

	g := NewDynamicGraph(4)
	m := NewDynamicMSF(4)
	for _, batch := range [][]Edge{spine, cands} {
		if err := g.AddEdges(batch); err != nil {
			t.Fatalf("graph add: %v", err)
		}
		if err := m.AddEdges(batch); err != nil {
			t.Fatalf("msf add: %v", err)
		}
	}
	gc, ok := UnderlyingConnectivity(g)
	if !ok {
		t.Fatalf("UnderlyingConnectivity failed")
	}
	mc, ok := UnderlyingMSF(m)
	if !ok {
		t.Fatalf("UnderlyingMSF failed")
	}
	// Both structures hold the same pre-delete state: spine in the tree,
	// both candidates non-tree.
	for _, e := range cands {
		if gc.IsTreeEdge(e.U, e.V) || mc.IsTreeEdge(e.U, e.V) {
			t.Fatalf("candidate (%d,%d) unexpectedly in a tree pre-delete", e.U, e.V)
		}
	}

	del := []Edge{{U: 1, V: 2}}
	if err := g.DeleteEdges(del); err != nil {
		t.Fatalf("graph delete: %v", err)
	}
	if err := m.DeleteEdges(del); err != nil {
		t.Fatalf("msf delete: %v", err)
	}
	if !g.Connected(0, 3) || !m.Connected(0, 3) {
		t.Fatalf("replacement search failed to reconnect")
	}
	// The split: connectivity promotes min-key (0,3); MSF promotes
	// min-weight (1,3).
	if !gc.IsTreeEdge(0, 3) || gc.IsTreeEdge(1, 3) {
		t.Fatalf("DynamicGraph promoted (1,3); the min-key contract says (0,3)")
	}
	if !mc.IsTreeEdge(1, 3) || mc.IsTreeEdge(0, 3) {
		t.Fatalf("DynamicMSF promoted (0,3); the min-weight contract says (1,3)")
	}
	if m.TotalWeight() != 4 {
		t.Fatalf("MSF TotalWeight = %d after promotion, want 1+1+2=4", m.TotalWeight())
	}
}
