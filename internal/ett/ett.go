package ett

import (
	"fmt"

	"repro/internal/admit"
	"repro/internal/seq"
)

// Forest is an Euler-tour-tree forest over n vertices, generic over the
// sequence backend B with node type N.
type Forest[N comparable, B seq.Backend[N]] struct {
	b       B
	verts   []N
	arcs    map[uint64][2]N // canonical edge key -> [arc lo->hi, arc hi->lo]
	workers int             // batch worker count (1 = serial)
	chk     admit.Check     // reusable pre-mutation batch check
}

// New returns an empty forest over vertices 0..n-1 using backend b.
func New[N comparable, B seq.Backend[N]](n int, b B) *Forest[N, B] {
	f := &Forest[N, B]{b: b, verts: make([]N, n), arcs: make(map[uint64][2]N, n), workers: 1}
	for i := range f.verts {
		f.verts[i] = b.NewNode(0, true)
	}
	return f
}

// NewTreap returns an ETT forest backed by treaps.
func NewTreap(n int, seed uint64) *Forest[*seq.TreapNode, *seq.Treap] {
	return New(n, seq.NewTreap(seed))
}

// NewSplay returns an ETT forest backed by splay trees.
func NewSplay(n int) *Forest[*seq.SplayNode, *seq.Splay] {
	return New(n, seq.NewSplay())
}

// NewSkipList returns an ETT forest backed by skip lists.
func NewSkipList(n int, seed uint64) *Forest[*seq.SkipNode, *seq.SkipList] {
	return New(n, seq.NewSkipList(seed))
}

// N returns the number of vertices.
func (f *Forest[N, B]) N() int { return len(f.verts) }

// BackendName reports the sequence backend in use.
func (f *Forest[N, B]) BackendName() string { return f.b.Name() }

// arcsOf returns the arc nodes (u->v, v->u) for edge (u,v), resolving the
// canonical storage orientation.
func (f *Forest[N, B]) arcsOf(u, v int) (uv, vu N, ok bool) {
	pair, found := f.arcs[admit.Key(u, v)]
	if !found {
		var zero N
		return zero, zero, false
	}
	if u < v {
		return pair[0], pair[1], true
	}
	return pair[1], pair[0], true
}

// HasEdge reports whether edge (u,v) is present.
func (f *Forest[N, B]) HasEdge(u, v int) bool {
	_, ok := f.arcs[admit.Key(u, v)]
	return ok
}

// Connected reports whether u and v are in the same tree.
func (f *Forest[N, B]) Connected(u, v int) bool {
	if u == v {
		return true
	}
	return f.b.SameSeq(f.verts[u], f.verts[v])
}

// reroot rotates x's tour so that it begins at node x, returning the new
// representative.
func (f *Forest[N, B]) reroot(x N) N {
	l, r := f.b.SplitBefore(x)
	return f.b.Join(r, l)
}

// Link inserts edge (u,v). The endpoints must be in different trees.
func (f *Forest[N, B]) Link(u, v int) {
	if u == v {
		panic(fmt.Sprintf("ett: self loop %d", u))
	}
	if f.HasEdge(u, v) {
		panic(fmt.Sprintf("ett: duplicate edge (%d,%d)", u, v))
	}
	ru := f.reroot(f.verts[u])
	rv := f.reroot(f.verts[v])
	auv := f.b.NewNode(0, false)
	avu := f.b.NewNode(0, false)
	if u < v {
		f.arcs[admit.Key(u, v)] = [2]N{auv, avu}
	} else {
		f.arcs[admit.Key(u, v)] = [2]N{avu, auv}
	}
	// New tour: ET(u) ++ [u->v] ++ ET(v) ++ [v->u].
	s := f.b.Join(ru, f.b.Repr(auv))
	s = f.b.Join(s, rv)
	f.b.Join(s, f.b.Repr(avu))
}

// Cut removes edge (u,v), splitting its tree in two.
func (f *Forest[N, B]) Cut(u, v int) {
	auv, avu, ok := f.arcsOf(u, v)
	if !ok {
		panic(fmt.Sprintf("ett: cutting absent edge (%d,%d)", u, v))
	}
	delete(f.arcs, admit.Key(u, v))
	// Normalize to first/second by tour order: split before auv and test
	// which side avu landed on.
	first, second := auv, avu
	l1, _ := f.b.SplitBefore(auv)
	if !f.b.SameSeq(avu, auv) {
		// avu precedes auv: tour was [A avu B auv C] and the split just
		// performed was inside the pattern; rename and split before the
		// true first arc within the left piece.
		first, second = avu, auv
		var l1b N
		l1b, _ = f.b.SplitBefore(avu)
		// Pieces now: l1b = A, [avu B], [auv C].
		l1 = l1b
	}
	// Pieces: l1 = A, [first .. inner .. second?]: the piece starting at
	// first runs to where the original tour was already severed. Strip the
	// two arc nodes and separate the inner tour.
	_, afterFirst := f.b.SplitAfter(first) // [first], [inner .. second ..]
	_ = afterFirst
	innerL, tail := f.b.SplitBefore(second) // inner, [second ..rest]
	_ = innerL
	_, r2 := f.b.SplitAfter(second) // [second], rest (possibly empty)
	// Reconnect the outer tour A ++ rest.
	f.b.Join(l1, r2)
	f.b.Free(auv)
	f.b.Free(avu)
	_ = tail
}

// ComponentSize returns the number of vertices in u's tree.
func (f *Forest[N, B]) ComponentSize(u int) int {
	_, cnt := f.b.Agg(f.verts[u])
	return cnt
}

// SetVertexValue assigns the value aggregated by SubtreeSum.
func (f *Forest[N, B]) SetVertexValue(v int, val int64) {
	f.b.SetVal(f.verts[v], val)
}

// SubtreeSum returns the sum of vertex values in the subtree rooted at v
// when its tree is rooted so that p is v's parent. p must be adjacent to v.
func (f *Forest[N, B]) SubtreeSum(v, p int) int64 {
	apv, avp, ok := f.arcsOf(p, v)
	if !ok {
		panic(fmt.Sprintf("ett: subtree query with non-adjacent (%d,%d)", v, p))
	}
	// Reroot the tour at p: then arc p->v precedes v->p and the segment
	// [p->v .. v->p] is exactly the tour of v's subtree.
	f.reroot(f.verts[p])
	l1, r1 := f.b.SplitBefore(apv)
	_ = r1
	l2, r2 := f.b.SplitAfter(avp)
	sum, _ := f.b.Agg(l2)
	// Reassemble.
	f.b.Join(f.b.Join(l1, f.b.Repr(l2)), r2)
	return sum
}

// SubtreeSize returns the number of vertices in the subtree rooted at v
// with respect to parent p.
func (f *Forest[N, B]) SubtreeSize(v, p int) int {
	apv, avp, ok := f.arcsOf(p, v)
	if !ok {
		panic(fmt.Sprintf("ett: subtree query with non-adjacent (%d,%d)", v, p))
	}
	f.reroot(f.verts[p])
	l1, _ := f.b.SplitBefore(apv)
	l2, r2 := f.b.SplitAfter(avp)
	_, cnt := f.b.Agg(l2)
	f.b.Join(f.b.Join(l1, f.b.Repr(l2)), r2)
	return cnt
}

// EdgeCount returns the number of live edges.
func (f *Forest[N, B]) EdgeCount() int { return len(f.arcs) }
