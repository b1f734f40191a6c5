package ufotree

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestDynamicGraphFacade drives the connectivity adapter end to end:
// cycle-closing adds, replacement promotion on delete, batch queries, and
// the PhaseStats field mapping.
func TestDynamicGraphFacade(t *testing.T) {
	g := NewDynamicGraph(6)
	g.SetWorkers(2)
	if g.Workers() != 2 || g.N() != 6 || g.Name() != "ufo-conn" {
		t.Fatalf("facade basics wrong: workers=%d n=%d name=%q", g.Workers(), g.N(), g.Name())
	}
	if g.Levels() < 1 {
		t.Fatalf("Levels() = %d, want >= 1", g.Levels())
	}
	// A 4-cycle plus a pendant: the 4th cycle edge must become non-tree
	// instead of being rejected (the contract difference vs BatchForest).
	if err := g.AddEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 3, V: 4}}); err != nil {
		t.Fatalf("AddEdges: %v", err)
	}
	if g.EdgeCount() != 5 || g.ComponentCount() != 2 {
		t.Fatalf("after adds: edges=%d comps=%d, want 5/2", g.EdgeCount(), g.ComponentCount())
	}
	conn := g.BatchConnected([][2]int{{0, 2}, {0, 4}, {0, 5}})
	if !conn[0] || !conn[1] || conn[2] {
		t.Fatalf("BatchConnected = %v, want [true true false]", conn)
	}
	st := g.PhaseStats()
	if st.Links != 5 || st.Cuts != 0 || st.Batches != 1 {
		t.Fatalf("PhaseStats mapping wrong after add batch: %+v", st)
	}
	if st.Depth != g.Levels() || st.Levels != 0 {
		t.Fatalf("PhaseStats depth mapping wrong: depth=%d levels=%d (graph levels=%d)", st.Depth, st.Levels, g.Levels())
	}
	names := make([]string, len(st.Phases))
	for i, p := range st.Phases {
		names[i] = p.Name
	}
	if joined := strings.Join(names, ","); joined != "classify,forest_cut,search,push_down,promote,forest_link,nontree" {
		t.Fatalf("connectivity phase table = %s", joined)
	}

	// Deleting a cycle edge keeps the component connected via promotion.
	if err := g.DeleteEdges([]Edge{{U: 0, V: 1}}); err != nil {
		t.Fatalf("DeleteEdges: %v", err)
	}
	if !g.Connected(0, 1) {
		t.Fatal("replacement promotion did not keep the cycle connected")
	}
	st = g.PhaseStats()
	if st.Cuts != 1 || st.Links != 0 {
		t.Fatalf("PhaseStats mapping wrong after delete batch: %+v", st)
	}
	if st.SearchRounds < 1 {
		t.Fatalf("PhaseStats.SearchRounds = %d after a promoting delete, want >= 1", st.SearchRounds)
	}
	if g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("HasEdge wrong after delete")
	}

	// The concrete structure is reachable for the extended API.
	c, ok := UnderlyingConnectivity(g)
	if !ok || c.TreeEdgeCount()+c.NonTreeEdgeCount() != g.EdgeCount() {
		t.Fatalf("UnderlyingConnectivity inconsistent (ok=%v)", ok)
	}
	if _, ok := UnderlyingConnectivity(nil); ok {
		t.Fatal("UnderlyingConnectivity(nil) reported ok")
	}

	// Severing the pendant leaves it isolated: component count is exact.
	g.MustDeleteEdges([]Edge{{U: 3, V: 4}})
	if g.Connected(3, 4) || g.ComponentCount() != 3 {
		t.Fatalf("after pendant cut: comps=%d, want 3", g.ComponentCount())
	}
}

// TestDynamicGraphAdmissionErrors pins the error-returning admission API:
// each violation class is reported as its typed error (errors.Is), names
// the offending edge, and leaves the graph untouched.
func TestDynamicGraphAdmissionErrors(t *testing.T) {
	g := NewDynamicGraph(4)
	if err := g.AddEdges([]Edge{{U: 0, V: 1}}); err != nil {
		t.Fatalf("valid add rejected: %v", err)
	}
	check := func(got error, want error, wantIn string) {
		t.Helper()
		if !errors.Is(got, want) {
			t.Fatalf("error %v, want errors.Is(%v)", got, want)
		}
		if !strings.Contains(got.Error(), wantIn) {
			t.Fatalf("error %q does not name the offender %q", got, wantIn)
		}
		if g.EdgeCount() != 1 || g.ComponentCount() != 3 {
			t.Fatalf("graph mutated across rejected batch (%v)", got)
		}
	}
	check(g.AddEdges([]Edge{{U: 2, V: 2}}), ErrSelfLoop, "(2,2)")
	check(g.AddEdges([]Edge{{U: 1, V: 0}}), ErrDuplicateEdge, "(1,0)")
	check(g.AddEdges([]Edge{{U: 2, V: 3}, {U: 3, V: 2}}), ErrDuplicateEdge, "(3,2)")
	check(g.AddEdges([]Edge{{U: 0, V: 4}}), ErrVertexRange, "4")
	check(g.AddEdges([]Edge{{U: -1, V: 0}}), ErrVertexRange, "-1")
	check(g.DeleteEdges([]Edge{{U: 1, V: 2}}), ErrAbsentCut, "(1,2)")
	check(g.DeleteEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 0}}), ErrAbsentCut, "(1,0)")
	check(g.DeleteEdges([]Edge{{U: 3, V: 3}}), ErrSelfLoop, "(3,3)")
	check(g.DeleteEdges([]Edge{{U: 0, V: 9}}), ErrVertexRange, "9")
}

// TestDynamicGraphMustPanics pins the Must wrappers' pre-mutation panic
// contract (the conn package tests the full matrix).
func TestDynamicGraphMustPanics(t *testing.T) {
	g := NewDynamicGraph(4)
	g.MustAddEdges([]Edge{{U: 0, V: 1}})
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
			if g.EdgeCount() != 1 || g.ComponentCount() != 3 {
				t.Fatalf("graph mutated across recovered panic %v", r)
			}
		}()
		fn()
	}
	mustPanic("self loop", func() { g.MustAddEdges([]Edge{{U: 2, V: 2}}) })
	mustPanic("duplicate edge", func() { g.MustAddEdges([]Edge{{U: 1, V: 0}}) })
	mustPanic("absent edge", func() { g.MustDeleteEdges([]Edge{{U: 1, V: 2}}) })
	mustPanic("repeated in batch", func() { g.MustAddEdges([]Edge{{U: 2, V: 3}, {U: 3, V: 2}}) })
}

// TestDynamicGraphBatchRepr drives BatchFindRepr and BatchConnectedPairs:
// representatives agree exactly with connectivity, stay stable across
// queries within an epoch, and are retired by updates.
func TestDynamicGraphBatchRepr(t *testing.T) {
	g := NewDynamicGraph(8, WithWorkers(2))
	g.MustAddEdges([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6}, {U: 6, V: 5 + 2}})
	vs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rep := g.BatchFindRepr(vs)
	for i, u := range vs {
		for j, v := range vs {
			if (rep[i] == rep[j]) != g.Connected(u, v) {
				t.Fatalf("repr disagreement: rep[%d]=%d rep[%d]=%d connected=%v",
					u, rep[i], v, rep[j], g.Connected(u, v))
			}
		}
		if !g.Connected(u, rep[i]) {
			t.Fatalf("representative %d of %d is outside its component", rep[i], u)
		}
	}
	// Stability within the epoch: a second query, in different order,
	// returns the same representatives.
	rev := []int{7, 2, 4, 0}
	rep2 := g.BatchFindRepr(rev)
	for i, v := range rev {
		if rep2[i] != rep[v] {
			t.Fatalf("representative of %d moved within an epoch: %d -> %d", v, rep[v], rep2[i])
		}
	}
	pairs := [][2]int{{0, 2}, {0, 3}, {5, 7}, {4, 4}}
	want := []bool{true, false, true, true}
	got := g.BatchConnectedPairs(pairs)
	slow := g.BatchConnected(pairs)
	for i := range pairs {
		if got[i] != want[i] || slow[i] != want[i] {
			t.Fatalf("pair %v: BatchConnectedPairs=%v BatchConnected=%v want %v", pairs[i], got[i], slow[i], want[i])
		}
	}
	// An update retires the epoch: joining two components must collapse
	// their representatives.
	g.MustAddEdges([]Edge{{U: 2, V: 3}})
	rep3 := g.BatchFindRepr([]int{0, 4})
	if rep3[0] != rep3[1] {
		t.Fatalf("after joining, representatives differ: %v", rep3)
	}
}
