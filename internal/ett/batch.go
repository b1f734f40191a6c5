package ett

import (
	"fmt"

	"repro/internal/admit"
	"repro/internal/parallel"
)

// Batch operations.
//
// The paper's batch-parallel ETT (Tseng et al.) uses phase-concurrent skip
// lists. This implementation takes the component-decomposition route
// (component-grouped fork-join): a batch's updates are partitioned by
// the connected components they touch; updates on disjoint tours commute
// and run in parallel, while updates sharing a tour are applied serially
// within their group. Arc-node allocation and edge-map maintenance happen
// serially up front so the parallel phase performs only splits and joins on
// disjoint node sets.

// SetWorkers fixes the worker count used by parallel batch queries and
// toggles batch-update parallelism (the update path parallelizes across
// component groups with fork-join, so it has no tunable width). Clamp
// rules match the facade contract: k <= 0 defaults to GOMAXPROCS, k == 1
// is fully serial, and oversubscribed counts pass through.
func (f *Forest[N, B]) SetWorkers(k int) {
	if k <= 0 {
		k = parallel.Procs()
	}
	f.workers = k
}

// Workers reports the configured batch worker count.
func (f *Forest[N, B]) Workers() int { return f.workers }

// BatchLink inserts a batch of edges. The batch together with the current
// forest must remain a forest. A batch that breaks a rule of the shared
// pre-mutation check (internal/admit) panics with its error before any
// mutation.
func (f *Forest[N, B]) BatchLink(edges [][2]int) {
	if len(edges) == 0 {
		return
	}
	at := func(i int) (int, int) { return edges[i][0], edges[i][1] }
	if err := f.chk.Batch(admit.Link, f.N(), len(edges), at, f.HasEdge); err != nil {
		panic(err)
	}
	// Pre-allocate arc nodes and register edges serially (shared RNG and
	// map are not touched in the parallel phase).
	type linkOp struct {
		u, v     int
		auv, avu N
	}
	ops := make([]linkOp, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		auv := f.b.NewNode(0, false)
		avu := f.b.NewNode(0, false)
		if u < v {
			f.arcs[admit.Key(u, v)] = [2]N{auv, avu}
		} else {
			f.arcs[admit.Key(u, v)] = [2]N{avu, auv}
		}
		ops[i] = linkOp{u, v, auv, avu}
	}
	// Partition the batch into groups whose merged components are
	// disjoint: union-find over the current component representatives.
	reprID := map[N]int{}
	idOf := func(x N) int {
		r := f.b.Repr(x)
		id, ok := reprID[r]
		if !ok {
			id = len(reprID)
			reprID[r] = id
		}
		return id
	}
	uf := newUF(2 * len(edges))
	opComp := make([][2]int, len(ops))
	for i, op := range ops {
		a, b := idOf(f.verts[op.u]), idOf(f.verts[op.v])
		opComp[i] = [2]int{a, b}
		uf.union(a, b)
	}
	groups := map[int][]int{}
	for i := range ops {
		g := uf.find(opComp[i][0])
		groups[g] = append(groups[g], i)
	}
	apply := func(idxs []int) {
		for _, i := range idxs {
			op := ops[i]
			ru := f.reroot(f.verts[op.u])
			rv := f.reroot(f.verts[op.v])
			s := f.b.Join(ru, f.b.Repr(op.auv))
			s = f.b.Join(s, rv)
			f.b.Join(s, f.b.Repr(op.avu))
		}
	}
	f.runGroups(groups, apply)
}

// BatchCut removes a batch of distinct existing edges. Like BatchLink, a
// batch that breaks a rule of the shared check panics with its error
// before any mutation.
func (f *Forest[N, B]) BatchCut(edges [][2]int) {
	if len(edges) == 0 {
		return
	}
	at := func(i int) (int, int) { return edges[i][0], edges[i][1] }
	if err := f.chk.Batch(admit.Cut, f.N(), len(edges), at, f.HasEdge); err != nil {
		panic(err)
	}
	// Group edges by the component (tour) they currently belong to; cuts
	// within one tour must be sequential, across tours they commute.
	reprID := map[N]int{}
	groups := map[int][]int{}
	for i, e := range edges {
		r := f.b.Repr(f.verts[e[0]])
		id, ok := reprID[r]
		if !ok {
			id = len(reprID)
			reprID[r] = id
		}
		groups[id] = append(groups[id], i)
	}
	apply := func(idxs []int) {
		for _, i := range idxs {
			f.cutNodes(edges[i][0], edges[i][1])
		}
	}
	f.runGroups(groups, apply)
	// Release arc nodes serially (shared map).
	for _, e := range edges {
		auv, avu, _ := f.arcsOf(e[0], e[1])
		delete(f.arcs, admit.Key(e[0], e[1]))
		f.b.Free(auv)
		f.b.Free(avu)
	}
}

// cutNodes performs the structural part of Cut without touching shared maps.
func (f *Forest[N, B]) cutNodes(u, v int) {
	auv, avu, ok := f.arcsOf(u, v)
	if !ok {
		panic(fmt.Sprintf("ett: cutting absent edge (%d,%d)", u, v))
	}
	first, second := auv, avu
	l1, _ := f.b.SplitBefore(auv)
	if !f.b.SameSeq(avu, auv) {
		first, second = avu, auv
		l1, _ = f.b.SplitBefore(avu)
	}
	_, _ = f.b.SplitAfter(first)
	f.b.SplitBefore(second)
	_, r2 := f.b.SplitAfter(second)
	f.b.Join(l1, r2)
}

func (f *Forest[N, B]) runGroups(groups map[int][]int, apply func([]int)) {
	if len(groups) == 1 || f.workers == 1 {
		for _, idxs := range groups {
			apply(idxs)
		}
		return
	}
	all := make([][]int, 0, len(groups))
	for _, idxs := range groups {
		all = append(all, idxs)
	}
	parallel.ForGrain(len(all), 1, func(i int) { apply(all[i]) })
}

type uf struct{ p []int }

func newUF(n int) *uf {
	u := &uf{p: make([]int, n)}
	for i := range u.p {
		u.p[i] = i
	}
	return u
}

func (u *uf) find(x int) int {
	for u.p[x] != x {
		u.p[x] = u.p[u.p[x]]
		x = u.p[x]
	}
	return x
}

func (u *uf) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.p[rb] = ra
	}
}
