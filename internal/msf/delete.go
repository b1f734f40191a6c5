package msf

import (
	"time"

	"repro/internal/admit"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/ufo"
)

// witness is one endpoint of a cut tree edge, tagged with the pre-cut
// component id of the forest — the grouping key of the replacement search
// (replacement edges can only exist inside one pre-cut tree).
type witness struct {
	v   int
	gid uint64
}

// BatchDeleteEdges removes a batch of edges. Non-tree edges leave the
// incidence maps with no structural work. Tree edges are cut in one
// BatchCut and the replacement search then repairs the forest group by
// group with the shared skip-largest round loop: each sweep scans its
// whole class — every incident non-tree edge of every member component —
// and promotes the single minimum-(weight, key) edge crossing out of the
// class. One minimum per sweep is Borůvka's rule: the promoted edge is the
// lightest edge over the cut (class, rest of the group), so the cut
// property puts it in the MSF of the surviving graph; repeating until no
// class has a crossing edge restores the unique minimum spanning forest.
//
// Unlike conn's sweep there is no early exit at the first crossing chunk:
// minimality needs the whole class scanned. Promotions are pended and
// flushed as one BatchLink after each group's search, keeping the forest
// static (and the overlay's component ids stable) while the group runs.
//
// An adversarial batch (an endpoint out of range, a self loop, an
// in-batch repeat in either orientation, an absent edge) is refused with
// the shared check's typed error before any mutation.
func (m *BatchDynamicMSF) BatchDeleteEdges(edges []Edge) error {
	if len(edges) == 0 {
		return nil
	}
	at := func(i int) (int, int) { return edges[i].U, edges[i].V }
	if err := m.chk.Batch(admit.Delete, m.n, len(edges), at, m.HasEdge); err != nil {
		return err
	}
	m.beginStats(0, len(edges))
	start := time.Now()

	// Classify against the central edge record, in parallel (map reads
	// only).
	recs := make([]edgeRec, len(edges))
	m.timePhase(phClassify, func() int {
		parallel.WorkersForRangeAuto(m.workers, len(edges), classifyGrain, func(_, lo, hi int) {
			chaos()
			for i := lo; i < hi; i++ {
				recs[i] = m.rec[admit.Key(edges[i].U, edges[i].V)]
			}
		})
		return len(edges)
	})

	// Non-tree deletions: drop from the incidence maps and the record.
	m.timePhase(phNonTree, func() int {
		nt := 0
		for i, e := range edges {
			if recs[i].tree {
				continue
			}
			m.ntRemove(e.U, e.V)
			delete(m.rec, admit.Key(e.U, e.V))
			nt++
		}
		return nt
	})

	// Tree deletions: collect witnesses with their pre-cut component ids
	// (before any cut), then sever everything in one BatchCut.
	var wit []witness
	var cuts [][2]int
	for i, e := range edges {
		if !recs[i].tree {
			continue
		}
		gid := m.f.ComponentID(e.U)
		wit = append(wit, witness{e.U, gid}, witness{e.V, gid})
		cuts = append(cuts, [2]int{e.U, e.V})
		m.total -= recs[i].w
		delete(m.rec, admit.Key(e.U, e.V))
	}
	if len(cuts) == 0 {
		m.stats.Total = time.Since(start)
		return nil
	}
	m.timePhase(phForestCut, func() int {
		m.f.BatchCut(cuts)
		return len(cuts)
	})

	// Replacement search per pre-cut tree, in first-seen witness order.
	groups := make(map[uint64][]int, len(wit))
	var order []uint64
	for _, w := range wit {
		if _, ok := groups[w.gid]; !ok {
			order = append(order, w.gid)
		}
		groups[w.gid] = append(groups[w.gid], w.v)
	}
	for _, gid := range order {
		m.searchGroup(groups[gid])
	}
	m.stats.Total = time.Since(start)
	return nil
}

// msfSearch is the per-group search state: the shared replacement-search
// core bound to the static forest, plus the group's pending promotion
// links (flushed after the group's round loop ends).
type msfSearch struct {
	m    *BatchDynamicMSF
	grp  *search.Group
	pend []ufo.Edge
}

// searchGroup repairs one pre-cut tree's splits: the shared round loop
// sorts the live classes by (size, witness), skips the largest, and sweeps
// the rest; each sweep promotes its class's minimum crossing edge or
// proves the class maximal. The pended promotions flush as one BatchLink
// once the group settles.
func (m *BatchDynamicMSF) searchGroup(witnesses []int) {
	s := &msfSearch{
		m:   m,
		grp: search.NewGroup(witnesses, m.f.ComponentID, m.f.ComponentSize),
	}
	s.grp.Run(func(c *search.Class) int {
		return m.sweepClass(s, c)
	})
	if len(s.pend) > 0 {
		m.timePhase(phForestLink, func() int {
			m.f.BatchLink(s.pend)
			return len(s.pend)
		})
	}
}

// obs is one scanned incidence entry: the edge, its weight, and the far
// endpoint's component id.
type obs struct {
	x, y int
	w    int64
	id   uint64
}

// sweepClass scans every non-tree edge incident to class c — all member
// components, no early exit — and promotes the single minimum-(weight,
// key) edge crossing out of the class: removed from the incidence maps,
// marked tree in the record, pended as a forest link, and the far class
// absorbed. Internal edges are observed and skipped; they stay non-tree.
// Returns 1 on promotion, 0 when no edge leaves the class (maximal).
func (m *BatchDynamicMSF) sweepClass(s *msfSearch, c *search.Class) int {
	m.stats.Rounds++
	tScan := time.Now()
	myRoot := s.grp.Overlay.Find(c.Root)

	// Gather the class's vertices (reusing the scratch buffer across
	// members would alias, so the sweep owns one flat slice).
	verts := m.scratch[:0]
	for _, mem := range c.Members {
		verts = m.f.ComponentVertices(mem, verts)
	}
	m.scratch = verts[:0]

	// The minimum is order-independent, so the scan can fan out; the
	// overlay classification mutates the union-find (path halving) and
	// stays sequential on the gathered buffers, as in conn's sweep.
	var best *cand
	scanned := 0
	nw := m.workers
	if nw < 1 {
		nw = 1
	}
	consider := func(x, y int, w int64, id uint64) {
		scanned++
		far := s.grp.Overlay.Find(s.grp.Overlay.Intern(id))
		if far == myRoot {
			return
		}
		k := admit.Key(x, y)
		if best == nil || less(w, k, best.w, best.k) {
			best = &cand{w: w, k: k, x: x, y: y, far: far}
		}
	}
	if nw == 1 || len(verts) < 2*classifyGrain {
		for _, vx := range verts {
			for vy, w := range m.nt[vx] {
				consider(vx, vy, w, m.f.ComponentID(vy))
			}
		}
	} else {
		perW := make([][]obs, nw)
		parallel.WorkersForRangeAuto(m.workers, len(verts), classifyGrain, func(wk, lo, hi int) {
			chaos()
			for idx := lo; idx < hi; idx++ {
				vx := verts[idx]
				for vy, w := range m.nt[vx] {
					perW[wk] = append(perW[wk], obs{x: vx, y: vy, w: w, id: m.f.ComponentID(vy)})
				}
			}
		})
		for wk := 0; wk < nw; wk++ {
			for _, o := range perW[wk] {
				consider(o.x, o.y, o.w, o.id)
			}
		}
	}
	m.addPhase(phSearch, time.Since(tScan), scanned)
	if best == nil {
		return 0
	}

	tProm := time.Now()
	m.ntRemove(best.x, best.y)
	m.rec[best.k] = edgeRec{w: best.w, tree: true}
	m.total += best.w
	s.pend = append(s.pend, ufo.Edge{U: best.x, V: best.y, W: best.w})
	s.grp.Absorb(c, best.far, best.y)
	m.stats.Promotions++
	m.addPhase(phPromote, time.Since(tProm), 1)
	return 1
}

// cand is the running minimum crossing edge of a sweep.
type cand struct {
	w    int64
	k    uint64
	x, y int
	far  int
}
