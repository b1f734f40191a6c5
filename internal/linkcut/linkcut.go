package linkcut

import (
	"fmt"
	"math"

	"repro/internal/admit"
)

type node struct {
	left, right, parent *node
	flip                bool
	// val is the node's own contribution to path aggregates: the edge
	// weight for edge nodes, 0 / -inf for vertex nodes.
	val int64
	// sum and max aggregate val over the node's splay subtree, which is
	// always a contiguous subpath of a preferred path.
	sum, max int64
	isEdge   bool
	id       int // vertex id for vertex nodes (diagnostics)
}

const negInf = math.MinInt64

// Forest is a link-cut tree forest over n vertices supporting Link, Cut,
// Connected, PathSum and PathMax.
type Forest struct {
	verts []node
	edges map[uint64]*node
	nLink int64
	stack []*node // scratch for iterative push-down in splay
}

// New returns an empty forest over vertices 0..n-1.
func New(n int) *Forest {
	f := &Forest{verts: make([]node, n), edges: make(map[uint64]*node, n)}
	for i := range f.verts {
		v := &f.verts[i]
		v.id = i
		v.val = 0
		v.sum = 0
		v.max = negInf
	}
	return f
}

// N returns the number of vertices.
func (f *Forest) N() int { return len(f.verts) }

func (x *node) isSplayRoot() bool {
	return x.parent == nil || (x.parent.left != x && x.parent.right != x)
}

func (x *node) push() {
	if x.flip {
		x.left, x.right = x.right, x.left
		if x.left != nil {
			x.left.flip = !x.left.flip
		}
		if x.right != nil {
			x.right.flip = !x.right.flip
		}
		x.flip = false
	}
}

func (x *node) pull() {
	x.sum = x.val
	if x.isEdge {
		x.max = x.val
	} else {
		x.max = negInf
	}
	if x.left != nil {
		x.sum += x.left.sum
		if x.left.max > x.max {
			x.max = x.left.max
		}
	}
	if x.right != nil {
		x.sum += x.right.sum
		if x.right.max > x.max {
			x.max = x.right.max
		}
	}
}

func rotate(x *node) {
	p := x.parent
	g := p.parent
	if !p.isSplayRoot() {
		if g.left == p {
			g.left = x
		} else {
			g.right = x
		}
	}
	x.parent = g
	if p.left == x {
		p.left = x.right
		if x.right != nil {
			x.right.parent = p
		}
		x.right = p
	} else {
		p.right = x.left
		if x.left != nil {
			x.left.parent = p
		}
		x.left = p
	}
	p.parent = x
	p.pull()
	x.pull()
}

func (f *Forest) splay(x *node) {
	// Push flips down the root-to-x splay path first (iteratively, to
	// keep stack usage independent of transient splay-tree depth).
	st := f.stack[:0]
	for y := x; ; y = y.parent {
		st = append(st, y)
		if y.isSplayRoot() {
			break
		}
	}
	for i := len(st) - 1; i >= 0; i-- {
		st[i].push()
	}
	f.stack = st[:0]
	for !x.isSplayRoot() {
		p := x.parent
		if !p.isSplayRoot() {
			g := p.parent
			if (g.left == p) == (p.left == x) {
				rotate(p) // zig-zig
			} else {
				rotate(x) // zig-zag
			}
		}
		rotate(x)
	}
}

// access makes the path from x to the root of its represented tree the
// preferred path and splays x to the root of its splay tree.
func (f *Forest) access(x *node) {
	f.splay(x)
	// Detach x's deeper preferred subpath.
	x.right = nil
	x.pull()
	for x.parent != nil {
		p := x.parent
		f.splay(p)
		p.right = x
		p.pull()
		f.splay(x)
	}
}

// makeRoot reroots x's represented tree at x.
func (f *Forest) makeRoot(x *node) {
	f.access(x)
	x.flip = !x.flip
	x.push()
}

func (f *Forest) findRoot(x *node) *node {
	f.access(x)
	for {
		x.push()
		if x.left == nil {
			break
		}
		x = x.left
	}
	f.splay(x)
	return x
}

// Connected reports whether u and v are in the same tree.
func (f *Forest) Connected(u, v int) bool {
	if u == v {
		return true
	}
	return f.findRoot(&f.verts[u]) == f.findRoot(&f.verts[v])
}

// HasEdge reports whether edge (u,v) is present.
func (f *Forest) HasEdge(u, v int) bool {
	_, ok := f.edges[admit.Key(u, v)]
	return ok
}

// Link inserts edge (u,v) with weight w. The endpoints must currently be in
// different trees and the edge must not already exist.
func (f *Forest) Link(u, v int, w int64) {
	if u == v {
		panic(fmt.Sprintf("linkcut: self loop %d", u))
	}
	if f.HasEdge(u, v) {
		panic(fmt.Sprintf("linkcut: duplicate edge (%d,%d)", u, v))
	}
	e := &node{val: w, isEdge: true, id: -1}
	e.pull()
	f.edges[admit.Key(u, v)] = e
	un, vn := &f.verts[u], &f.verts[v]
	// Attach u - e - v: make u a root and hang it under e, then hang e
	// under v.
	f.makeRoot(un)
	un.parent = e // path-parent pointer
	f.makeRoot(e)
	e.parent = vn
	f.nLink++
}

// Cut removes edge (u,v). The edge must exist.
func (f *Forest) Cut(u, v int) {
	key := admit.Key(u, v)
	e, ok := f.edges[key]
	if !ok {
		panic(fmt.Sprintf("linkcut: cutting absent edge (%d,%d)", u, v))
	}
	delete(f.edges, key)
	// Detach e from both sides: rerooting at e makes its represented-tree
	// neighbours u and v its children across preferred paths.
	un, vn := &f.verts[u], &f.verts[v]
	// Cut e-u.
	f.makeRoot(e)
	f.access(un)
	// After f.access(un) from root e, un's splay tree holds the path e..un,
	// which is exactly [e, un]; e is un's left descendant.
	f.splay(un)
	un.left.parent = nil
	un.left = nil
	un.pull()
	// Cut e-v.
	f.makeRoot(e)
	f.access(vn)
	f.splay(vn)
	vn.left.parent = nil
	vn.left = nil
	vn.pull()
}

// PathSum returns the sum of edge weights on the u..v path; ok is false if
// u and v are disconnected.
func (f *Forest) PathSum(u, v int) (sum int64, ok bool) {
	if u == v {
		return 0, true
	}
	if !f.Connected(u, v) {
		return 0, false
	}
	un, vn := &f.verts[u], &f.verts[v]
	f.makeRoot(un)
	f.access(vn)
	f.splay(vn)
	return vn.sum, true
}

// PathMax returns the maximum edge weight on the u..v path; ok is false if
// u and v are disconnected or u == v.
func (f *Forest) PathMax(u, v int) (max int64, ok bool) {
	if u == v {
		return 0, false
	}
	if !f.Connected(u, v) {
		return 0, false
	}
	un, vn := &f.verts[u], &f.verts[v]
	f.makeRoot(un)
	f.access(vn)
	f.splay(vn)
	return vn.max, true
}

// UpdateWeight changes the weight of edge (u,v).
func (f *Forest) UpdateWeight(u, v int, w int64) {
	e, ok := f.edges[admit.Key(u, v)]
	if !ok {
		panic(fmt.Sprintf("linkcut: updating absent edge (%d,%d)", u, v))
	}
	f.splay(e)
	e.val = w
	e.pull()
}

// EdgeCount returns the number of live edges.
func (f *Forest) EdgeCount() int { return len(f.edges) }
