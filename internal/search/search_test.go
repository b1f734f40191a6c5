package search

import (
	"fmt"
	"testing"
)

// TestCompUFBatchOrder pins the union-find the add-batch classification
// runs: ids intern to dense indices in first-seen order, Union keeps the
// first argument's root and reports whether the sets were distinct, so the
// tree/candidate split of a batch depends only on its order.
func TestCompUFBatchOrder(t *testing.T) {
	u := NewCompUF(4)
	for _, c := range []struct {
		id   uint64
		want int
	}{{100, 0}, {7, 1}, {100, 0}, {42, 2}, {7, 1}} {
		if got := u.Intern(c.id); got != c.want {
			t.Fatalf("Intern(%d) = %d, want %d", c.id, got, c.want)
		}
	}

	// A batch's edges, as pairs of endpoint component ids: the third edge
	// closes a cycle over the first two, the fifth repeats the fourth.
	batch := [][2]uint64{{100, 7}, {7, 42}, {42, 100}, {5, 6}, {6, 5}}
	want := []bool{true, true, false, true, false}
	for i, e := range batch {
		if got := u.Union(e[0], e[1]); got != want[i] {
			t.Fatalf("edge %d %v: Union = %v, want %v", i, e, got, want[i])
		}
	}
	if r := u.Find(u.Intern(42)); r != 0 {
		t.Fatalf("Find(42) = %d, want the first-seen root 0", r)
	}
	if !u.Same(100, 42) || u.Same(100, 5) || !u.Same(6, 5) {
		t.Fatal("Same disagrees with the unions applied")
	}
	if u.Same(100, 8) {
		t.Fatal("a fresh id joined an existing set")
	}
	// UnionIdx returns the surviving root: a's, when the sets differ.
	a, b := u.Intern(5), u.Intern(100)
	if r := u.UnionIdx(a, b); r != u.Find(a) || r != u.Find(b) {
		t.Fatalf("UnionIdx(%d,%d) = %d, not the common root", a, b, r)
	}
	if r := u.UnionIdx(b, a); r != u.Find(a) {
		t.Fatalf("UnionIdx of one set = %d, want its root %d", r, u.Find(a))
	}
}

// comps is a static forest of components for Group tests: vertex v lies
// in component id[v] of size size[v].
type comps struct {
	id   map[int]uint64
	size map[int]int
}

func (c comps) group(witnesses []int) *Group {
	return NewGroup(witnesses,
		func(v int) uint64 { return c.id[v] },
		func(v int) int { return c.size[v] })
}

// fourComps has pieces A (vertex 0, size 5), B (1, size 2), C (2, size 2)
// and D (3, size 9), plus E (vertex 9, size 3), which no witness names.
var fourComps = comps{
	id:   map[int]uint64{0: 10, 1: 20, 2: 30, 3: 40, 9: 50},
	size: map[int]int{0: 5, 1: 2, 2: 2, 3: 9, 9: 3},
}

// TestGroupRunSweepsSmallestFirst checks one round of the loop: classes
// are swept by (size, witness) ascending, the largest is skipped, and when
// every sweep returns 0 the loop ends after that round.
func TestGroupRunSweepsSmallestFirst(t *testing.T) {
	g := fourComps.group([]int{3, 0, 2, 1})
	var order []int
	g.Run(func(c *Class) int {
		order = append(order, c.Witness)
		return 0
	})
	if got, want := fmt.Sprint(order), "[1 2 0]"; got != want {
		t.Fatalf("sweep order by witness = %s, want %s (D, the largest, skipped)", got, want)
	}
}

// TestGroupRunAbsorbs drives a promotion: B's sweep bridges to C, which
// merges into B and drops out of the round; A's sweep returns 0. The next
// round sweeps the merged class (size 4) and still skips D, the largest;
// it returns 0, A is already maximal, and the loop ends.
func TestGroupRunAbsorbs(t *testing.T) {
	g := fourComps.group([]int{0, 1, 2, 3})
	var sweeps []string
	var merged *Class
	g.Run(func(c *Class) int {
		sweeps = append(sweeps, fmt.Sprintf("%d/%d", c.Witness, c.Size))
		if c.Witness == 1 && merged == nil {
			far := g.Overlay.Find(g.Overlay.Intern(fourComps.id[2]))
			g.Absorb(c, far, 2)
			merged = c
			return 1
		}
		return 0
	})
	if got, want := fmt.Sprint(sweeps), "[1/2 0/5 1/4]"; got != want {
		t.Fatalf("sweeps (witness/size) = %s, want %s", got, want)
	}
	if merged.Size != 4 || merged.Witness != 1 || fmt.Sprint(merged.Members) != "[1 2]" {
		t.Fatalf("merged class = size %d witness %d members %v, want 4, 1, [1 2]",
			merged.Size, merged.Witness, merged.Members)
	}
	if g.ClassOf(fourComps.id[1], 1) != merged || g.ClassOf(fourComps.id[2], 2) != merged {
		t.Fatal("B and C do not resolve to the merged class")
	}
}

// TestAbsorbAdmitsUnseenClass merges a far piece no witness named: Absorb
// admits it with its component's size, and its vertex joins the members.
func TestAbsorbAdmitsUnseenClass(t *testing.T) {
	g := fourComps.group([]int{1, 3})
	b := g.ClassOf(fourComps.id[1], 1)
	far := g.Overlay.Find(g.Overlay.Intern(fourComps.id[9]))
	g.Absorb(b, far, 9)
	if b.Size != 5 || b.Witness != 1 || fmt.Sprint(b.Members) != "[1 9]" {
		t.Fatalf("class after Absorb = size %d witness %d members %v, want 5, 1, [1 9]",
			b.Size, b.Witness, b.Members)
	}
	if g.ClassOf(fourComps.id[9], 9) != b {
		t.Fatal("the absorbed component does not resolve to the merged class")
	}
	// Two live classes remain, B∪E (size 5) and D (9): one round sweeps
	// B∪E only, and a zero return ends the loop.
	calls := 0
	g.Run(func(c *Class) int {
		calls++
		if c != b {
			t.Fatalf("swept witness %d, want the merged class", c.Witness)
		}
		return 0
	})
	if calls != 1 {
		t.Fatalf("Run swept %d classes, want 1", calls)
	}
}

// TestGroupRunEndsAtOneClass checks the other exit: when promotions leave
// a single live class, Run stops without sweeping it, even though every
// sweep so far made progress.
func TestGroupRunEndsAtOneClass(t *testing.T) {
	g := fourComps.group([]int{0, 1, 2, 3})
	calls := 0
	g.Run(func(c *Class) int {
		calls++
		for _, w := range []int{0, 1, 2, 3} {
			far := g.Overlay.Find(g.Overlay.Intern(fourComps.id[w]))
			if far != g.Overlay.Find(c.Root) {
				g.Absorb(c, far, w)
			}
		}
		return 1
	})
	if calls != 1 {
		t.Fatalf("Run swept %d times, want 1 (one class left after the first)", calls)
	}
}
