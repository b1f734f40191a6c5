package ternary

import (
	"fmt"

	"repro/internal/admit"
	"repro/internal/ufo"
)

const nilSlot = int32(-1)

type slotInfo struct {
	owner      int32 // original vertex owning this slot (-1 when free)
	next, prev int32 // adjacent slots in the owner's path
	hosted     []uint64
}

// Forest presents an arbitrary-degree dynamic forest on top of a degree ≤ 3
// contraction forest (topology or RC mode).
type Forest struct {
	n     int
	under *ufo.Forest
	slots []slotInfo
	tails []int32
	free  []int32
	// edgeSlots maps each real edge to its hosting slots, ordered
	// (slot of the smaller endpoint, slot of the larger endpoint).
	edgeSlots map[uint64][2]int32
	// batch translation buffers
	cuts     [][2]int
	links    []ufo.Edge
	linkIdx  map[uint64]int
	weights  map[uint64]int64
	maxSlots int
	chk      admit.Check // reusable pre-mutation batch check
}

// NewTopology returns a ternarized topology-tree forest over n vertices.
func NewTopology(n int) *Forest { return newForest(n, ufo.NewTopology) }

// NewRC returns a ternarized rake-compress forest over n vertices.
func NewRC(n int) *Forest { return newForest(n, ufo.NewRC) }

func newForest(n int, mk func(int) *ufo.Forest) *Forest {
	// Worst case one extra slot per edge endpoint beyond the first three:
	// 3n slots suffice for any forest on n vertices.
	cap := 3*n + 2
	f := &Forest{
		n:         n,
		under:     mk(cap),
		slots:     make([]slotInfo, cap),
		tails:     make([]int32, n),
		edgeSlots: make(map[uint64][2]int32, n),
		linkIdx:   make(map[uint64]int),
		weights:   make(map[uint64]int64, n),
		maxSlots:  cap,
	}
	for i := range f.slots {
		f.slots[i] = slotInfo{owner: -1, next: nilSlot, prev: nilSlot}
	}
	for v := 0; v < n; v++ {
		f.slots[v].owner = int32(v)
		f.tails[v] = int32(v)
	}
	for s := cap - 1; s >= n; s-- {
		f.free = append(f.free, int32(s))
	}
	return f
}

// N returns the number of original vertices.
func (f *Forest) N() int { return f.n }

// Underlying exposes the degree ≤ 3 forest (for memory accounting).
func (f *Forest) Underlying() *ufo.Forest { return f.under }

// SlotsInUse reports how many underlying vertices are currently allocated
// (the ternarization space overhead).
func (f *Forest) SlotsInUse() int { return f.maxSlots - len(f.free) }

func (f *Forest) alloc(owner int32) int32 {
	if len(f.free) == 0 {
		panic("ternary: slot pool exhausted")
	}
	s := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.slots[s] = slotInfo{owner: owner, next: nilSlot, prev: nilSlot}
	return s
}

func (f *Forest) release(s int32) {
	f.slots[s] = slotInfo{owner: -1, next: nilSlot, prev: nilSlot}
	f.free = append(f.free, s)
}

func (f *Forest) underDegree(s int32) int {
	d := len(f.slots[s].hosted)
	if f.slots[s].next != nilSlot {
		d++
	}
	if f.slots[s].prev != nilSlot {
		d++
	}
	return d
}

// emitLink queues an underlying link (fake or real).
func (f *Forest) emitLink(a, b int32, w int64) {
	key := admit.Key(int(a), int(b))
	f.linkIdx[key] = len(f.links)
	f.links = append(f.links, ufo.Edge{U: int(a), V: int(b), W: w})
}

// emitCut queues an underlying cut, cancelling a pending link of the same
// underlying edge instead when one exists (this happens when a batch both
// creates and removes a bridge or relocated edge).
func (f *Forest) emitCut(a, b int32) {
	key := admit.Key(int(a), int(b))
	if i, ok := f.linkIdx[key]; ok {
		f.links[i].U = -1 // tombstone
		delete(f.linkIdx, key)
		return
	}
	f.cuts = append(f.cuts, [2]int{int(a), int(b)})
}

// flush applies queued underlying updates: cuts first (keeping the
// underlying graph a forest throughout), then links.
func (f *Forest) flush() {
	if len(f.cuts) > 0 {
		f.under.BatchCut(f.cuts)
		f.cuts = f.cuts[:0]
	}
	if len(f.links) > 0 {
		live := f.links[:0]
		for _, l := range f.links {
			if l.U >= 0 {
				live = append(live, l)
			}
		}
		if len(live) > 0 {
			f.under.BatchLink(live)
		}
		f.links = f.links[:0]
	}
	for k := range f.linkIdx {
		delete(f.linkIdx, k)
	}
}

// hostSlot finds (or makes) a slot of v with spare degree for one real edge.
func (f *Forest) hostSlot(v int32) int32 {
	t := f.tails[v]
	if f.underDegree(t) < 3 {
		return t
	}
	// Expand: allocate a new tail and bridge it with a fake edge. The old
	// tail is full, so one of its hosted edges moves to the new slot to
	// free the degree needed by the fake edge.
	s := f.alloc(v)
	ts := &f.slots[t]
	moved := ts.hosted[len(ts.hosted)-1]
	ts.hosted = ts.hosted[:len(ts.hosted)-1]
	// Relocate the moved edge endpoint from t to s.
	pair := f.edgeSlots[moved]
	var other int32
	if pair[0] == t {
		other = pair[1]
		pair[0] = s
	} else {
		other = pair[0]
		pair[1] = s
	}
	f.edgeSlots[moved] = pair
	f.emitCut(t, other)
	f.emitLink(s, other, f.weights[moved])
	f.slots[s].hosted = append(f.slots[s].hosted, moved)
	// Bridge the path.
	f.slots[s].prev = t
	ts.next = s
	f.tails[v] = s
	f.emitLink(t, s, 0)
	return s
}

// spliceIfEmpty removes slot s from its owner's path when it hosts nothing
// and is not the owner's head slot.
func (f *Forest) spliceIfEmpty(s int32) {
	si := &f.slots[s]
	if si.owner < 0 || len(si.hosted) > 0 || int32(si.owner) == s {
		return
	}
	p, nx := si.prev, si.next
	// Head slots (s == owner) were excluded above; every other slot has a
	// predecessor.
	f.emitCut(p, s)
	f.slots[p].next = nx
	if nx != nilSlot {
		f.emitCut(s, nx)
		f.slots[nx].prev = p
		f.emitLink(p, nx, 0)
	}
	if f.tails[si.owner] == s {
		f.tails[si.owner] = p
	}
	f.release(s)
}

// Link inserts edge (u,v) with weight w.
func (f *Forest) Link(u, v int, w int64) {
	f.BatchLink([]ufo.Edge{{U: u, V: v, W: w}})
}

// Cut removes edge (u,v).
func (f *Forest) Cut(u, v int) {
	f.BatchCut([][2]int{{u, v}})
}

// BatchLink inserts a batch of edges (the union with the current forest
// must remain a forest). A batch that breaks a rule of the shared
// pre-mutation check (internal/admit) panics with its error before any
// mutation.
func (f *Forest) BatchLink(edges []ufo.Edge) {
	at := func(i int) (int, int) { return edges[i].U, edges[i].V }
	if err := f.chk.Batch(admit.Link, f.n, len(edges), at, f.HasEdge); err != nil {
		panic(err)
	}
	for _, ed := range edges {
		key := admit.Key(ed.U, ed.V)
		f.weights[key] = ed.W
		su := f.hostSlot(int32(ed.U))
		f.slots[su].hosted = append(f.slots[su].hosted, key)
		sv := f.hostSlot(int32(ed.V))
		f.slots[sv].hosted = append(f.slots[sv].hosted, key)
		if ed.U < ed.V {
			f.edgeSlots[key] = [2]int32{su, sv}
		} else {
			f.edgeSlots[key] = [2]int32{sv, su}
		}
		f.emitLink(su, sv, ed.W)
	}
	f.flush()
}

// BatchCut removes a batch of existing edges. Like BatchLink, a batch that
// breaks a rule of the shared check panics with its error before any
// mutation.
func (f *Forest) BatchCut(edges [][2]int) {
	at := func(i int) (int, int) { return edges[i][0], edges[i][1] }
	if err := f.chk.Batch(admit.Cut, f.n, len(edges), at, f.HasEdge); err != nil {
		panic(err)
	}
	for _, ed := range edges {
		key := admit.Key(ed[0], ed[1])
		pair := f.edgeSlots[key]
		delete(f.edgeSlots, key)
		delete(f.weights, key)
		f.emitCut(pair[0], pair[1])
		for _, s := range pair {
			h := f.slots[s].hosted
			for i, k := range h {
				if k == key {
					h[i] = h[len(h)-1]
					f.slots[s].hosted = h[:len(h)-1]
					break
				}
			}
			f.spliceIfEmpty(s)
		}
	}
	f.flush()
}

// HasEdge reports whether edge (u,v) exists.
func (f *Forest) HasEdge(u, v int) bool {
	_, ok := f.edgeSlots[admit.Key(u, v)]
	return ok
}

// EdgeCount returns the number of live (original) edges.
func (f *Forest) EdgeCount() int { return len(f.edgeSlots) }

// Connected reports whether u and v are in the same original tree.
func (f *Forest) Connected(u, v int) bool {
	return f.under.Connected(u, v)
}

// PathSum returns the sum of real edge weights on the u..v path (fake edges
// contribute 0).
func (f *Forest) PathSum(u, v int) (int64, bool) {
	return f.under.PathSum(u, v)
}

// PathMax returns the maximum edge weight on the u..v path. Because fake
// edges weigh 0, results are exact for non-negative edge weights (the
// paper's ⊥-element requirement from Appendix A.1).
func (f *Forest) PathMax(u, v int) (int64, bool) {
	if u == v {
		return 0, false
	}
	if !f.under.Connected(u, v) {
		return 0, false
	}
	m, ok := f.under.PathMax(u, v)
	return m, ok
}

// SetVertexValue assigns v's value (stored on its head slot).
func (f *Forest) SetVertexValue(v int, val int64) {
	f.under.SetVertexValue(v, val)
}

// SubtreeSum returns the sum of vertex values in v's subtree with respect
// to adjacent parent p.
func (f *Forest) SubtreeSum(v, p int) int64 {
	sv, sp := f.subtreeSlots(v, p)
	return f.under.SubtreeSum(int(sv), int(sp))
}

// subtreeSlots maps a real (v, parent p) subtree query to the hosting
// slots of the (v,p) edge, panicking on non-adjacent pairs.
func (f *Forest) subtreeSlots(v, p int) (sv, sp int32) {
	key := admit.Key(v, p)
	pair, ok := f.edgeSlots[key]
	if !ok {
		panic(fmt.Sprintf("ternary: subtree query with non-adjacent (%d,%d)", v, p))
	}
	sv, sp = pair[0], pair[1]
	if v > p {
		sv, sp = sp, sv
	}
	return sv, sp
}

// LCA returns the lowest common ancestor of u and v when their tree is
// rooted at r; ok is false when u, v, r are not all in one tree.
//
// The query runs on the ternarized forest between head slots (vertex v's
// head slot is slot v) and maps the answer back through slot ownership:
// each vertex's slots form a connected sub-path, so contracting slot paths
// maps the underlying tree onto the represented tree, and the median of
// the three head slots must therefore lie in the slot path of the real
// median — the unique vertex on all three pairwise paths.
func (f *Forest) LCA(u, v, r int) (int, bool) {
	m, ok := f.under.LCA(u, v, r)
	if !ok {
		return 0, false
	}
	return int(f.slots[m].owner), true
}

// Batch queries: read-only between batch updates, fanned out over the
// underlying forest's worker count (Underlying().SetWorkers). Head slots
// coincide with vertex ids, so connectivity and path batches delegate
// directly; subtree and LCA batches translate through the slot mapping
// outside the timed parallel region (map lookups are not written during
// queries, so the translation itself could run concurrently — it stays
// serial because it is a few hash probes per query).

// BatchConnected answers Connected for every pair in parallel.
func (f *Forest) BatchConnected(pairs [][2]int) []bool {
	return f.under.BatchConnected(pairs)
}

// BatchPathSum answers PathSum for every pair in parallel.
func (f *Forest) BatchPathSum(pairs [][2]int) ([]int64, []bool) {
	return f.under.BatchPathSum(pairs)
}

// BatchPathMax answers PathMax for every pair in parallel (fake edges
// weigh 0, so results are exact for non-negative weights, as with the
// single-op PathMax).
func (f *Forest) BatchPathMax(pairs [][2]int) ([]int64, []bool) {
	return f.under.BatchPathMax(pairs)
}

// BatchSubtreeSum answers SubtreeSum for every (v,p) pair in parallel.
// Non-adjacent pairs panic deterministically during translation, before
// any fan-out.
func (f *Forest) BatchSubtreeSum(pairs [][2]int) []int64 {
	conv := make([][2]int, len(pairs))
	for i, pr := range pairs {
		sv, sp := f.subtreeSlots(pr[0], pr[1])
		conv[i] = [2]int{int(sv), int(sp)}
	}
	return f.under.BatchSubtreeSum(conv)
}

// BatchLCA answers LCA for every (u,v,r) triple in parallel.
func (f *Forest) BatchLCA(triples [][3]int) ([]int, []bool) {
	out, ok := f.under.BatchLCA(triples)
	for i := range out {
		if ok[i] {
			out[i] = int(f.slots[out[i]].owner)
		}
	}
	return out, ok
}
