package conn

import (
	"sort"
	"time"

	"repro/internal/admit"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/ufo"
)

// Test instrumentation: the no-rescan property test registers hooks to
// observe every consumed scan — an edge moved down a level (push), promoted
// to tree, or demoted — and asserts each (edge, level) is consumed at most
// once per insertion epoch. All hooks run on the batch goroutine (the
// sweeps apply bucket mutations sequentially), so the callbacks need no
// locking. nil hooks (the default) cost one predictable branch.
var (
	ntPushHook  func(u, v, fromLevel int)
	tePushHook  func(u, v, fromLevel int)
	promoteHook func(u, v, level int)
	demoteHook  func(u, v, fromLevel, toLevel int)
)

// sweepChunkBase is the initial vertex-chunk size of a replacement sweep.
// The sweep walks the piece's vertices in deterministic chunks, doubling
// the chunk size each step, and stops at the first chunk that yields a
// crossing edge — chunk boundaries depend only on the piece, never on the
// worker count, so the promoted edge set is identical at every SetWorkers
// value. Tests lower it to force many chunks on small pieces.
var sweepChunkBase = 128

// witness is one endpoint of a cut tree edge, tagged with the pre-batch
// component id of the forest level it must be repaired at — the grouping
// key of the replacement search.
type witness struct {
	v   int
	gid uint64
}

// BatchDeleteEdges removes a batch of edges. Non-tree edges leave their
// level's incidence buckets with no structural work. Tree edges are cut
// out of every forest holding them (levels 0..ℓ(e)) and the replacement
// search then repairs spanning maximality level by level from the finest
// affected level up to the top: severed pieces are grouped by their
// pre-batch component at each level, the smaller pieces of each group are
// swept, every scanned-but-useless edge — the piece's own tree edges and
// its internal non-tree edges — is pushed down one level (so no edge is
// ever rescanned at the same level), and crossing edges are promoted into
// the spanning forests at and above their level, a maximal acyclic set per
// sweep.
//
// Forest writes are batched: each level's forest stays static while that
// level is searched (a group-local union-find overlays the promotions of
// the running search), and the promoted and pushed-down links accumulate
// per level, flushed as one BatchLink right before the receiving level's
// own search — or at the end of the batch for levels already searched.
//
// An adversarial batch (an endpoint out of range, a self loop, an
// in-batch repeat in either orientation, an absent edge) is refused with
// the shared check's typed error before any mutation.
func (g *BatchDynamicConnectivity) BatchDeleteEdges(edges []Edge) error {
	if len(edges) == 0 {
		return nil
	}
	at := func(i int) (int, int) { return edges[i].U, edges[i].V }
	if err := g.chk.Batch(admit.Delete, g.n, len(edges), at, g.HasEdge); err != nil {
		return err
	}
	g.beginStats(0, len(edges))
	start := time.Now()

	// Classify against the central edge record, in parallel (map reads
	// only).
	recs := make([]edgeRec, len(edges))
	g.timePhase(phClassify, func() int {
		parallel.WorkersForRangeAuto(g.workers, len(edges), classifyGrain, func(_, lo, hi int) {
			chaos()
			for i := lo; i < hi; i++ {
				recs[i] = g.rec[admit.Key(edges[i].U, edges[i].V)]
			}
		})
		return len(edges)
	})

	// Non-tree deletions: drop from the level bucket and the record.
	g.timePhase(phNonTree, func() int {
		nt := 0
		for i, e := range edges {
			if recs[i].tree {
				continue
			}
			g.ntRemove(int(recs[i].level), e.U, e.V)
			delete(g.rec, admit.Key(e.U, e.V))
			nt++
		}
		return nt
	})

	// Tree deletions: collect per-level witnesses with their pre-batch
	// component ids (before any cut — all grouping is against the
	// pre-batch forests), then cut each edge out of every forest holding
	// it.
	maxCutLev := -1
	for i := range edges {
		if recs[i].tree && int(recs[i].level) > maxCutLev {
			maxCutLev = int(recs[i].level)
		}
	}
	if maxCutLev < 0 { // no tree edges in the batch
		g.stats.Total = time.Since(start)
		return nil
	}
	wit := make([][]witness, maxCutLev+1)
	cuts := make([][][2]int, maxCutLev+1)
	for i, e := range edges {
		if !recs[i].tree {
			continue
		}
		lev := int(recs[i].level)
		for j := 0; j <= lev; j++ {
			gid := g.lv[j].f.ComponentID(e.U)
			wit[j] = append(wit[j], witness{e.U, gid}, witness{e.V, gid})
			cuts[j] = append(cuts[j], [2]int{e.U, e.V})
		}
		g.teRemove(lev, e.U, e.V)
		delete(g.rec, admit.Key(e.U, e.V))
	}
	g.timePhase(phForestCut, func() int {
		n := 0
		for j := 0; j <= maxCutLev; j++ {
			if len(cuts[j]) > 0 {
				g.lv[j].f.BatchCut(cuts[j])
				n += len(cuts[j])
			}
		}
		return n
	})

	// Replacement search, finest affected level first: promotions at a
	// fine level repair every coarser forest too (the promoted edge is
	// pended into all of them), so by the time a coarser level runs, its
	// groups only contain the still-unrepaired splits. The top-level
	// forest is not mutated until its own pending flush, which keeps the
	// shadow union-find's component ids stable across the deeper
	// searches.
	if g.pend == nil {
		g.pend = make([][]ufo.Edge, len(g.lv))
	}
	g.shadow0 = search.NewCompUF(16)
	for i := maxCutLev; i >= 0; i-- {
		g.flushPend(i)
		g.searchLevel(i, wit[i])
	}
	for j := len(g.lv) - 1; j >= 0; j-- {
		g.flushPend(j)
	}
	g.shadow0 = nil
	g.stats.Total = time.Since(start)
	return nil
}

// flushPend applies level i's pending links as one BatchLink (charged to
// the forest_link phase, like the add path's links).
func (g *BatchDynamicConnectivity) flushPend(i int) {
	if len(g.pend[i]) == 0 {
		return
	}
	g.timePhase(phForestLink, func() int {
		g.lv[i].f.BatchLink(g.pend[i])
		n := len(g.pend[i])
		g.pend[i] = g.pend[i][:0]
		return n
	})
}

// searchLevel repairs spanning maximality at level i: witnesses are
// grouped by their pre-batch level-i component (replacement edges can only
// exist inside one pre-batch tree) and each group is searched
// independently, in first-seen witness order.
func (g *BatchDynamicConnectivity) searchLevel(i int, ws []witness) {
	if len(ws) == 0 {
		return
	}
	groups := make(map[uint64][]int, len(ws))
	var order []uint64
	for _, w := range ws {
		if _, ok := groups[w.gid]; !ok {
			order = append(order, w.gid)
		}
		groups[w.gid] = append(groups[w.gid], w.v)
	}
	for _, gid := range order {
		g.searchGroup(i, groups[gid])
	}
}

// levelSearch is the per-group search state at one level: the shared
// replacement-search core (internal/search: overlay union-find, class
// table, skip-largest round loop) bound to the static level-i forest.
type levelSearch struct {
	g   *BatchDynamicConnectivity
	i   int
	f   *ufo.Forest
	grp *search.Group
}

// searchGroup restores maximality at level i among the current components
// holding the group's witnesses. The shared round loop sorts the live
// classes by (size, witness), skips the largest, and sweeps the rest; a
// sweep either consumes crossing edges (merging classes) or proves its
// class maximal at this level. The loop ends when at most one unmarked
// class remains.
func (g *BatchDynamicConnectivity) searchGroup(i int, witnesses []int) {
	f := g.lv[i].f
	s := &levelSearch{
		g:   g,
		i:   i,
		f:   f,
		grp: search.NewGroup(witnesses, f.ComponentID, f.ComponentSize),
	}
	s.grp.Run(func(c *search.Class) int {
		return g.sweepClass(s, c)
	})
}

// obs is one scanned incidence entry: the edge and the far endpoint's
// component id at the searched level.
type obs struct {
	x, y int
	id   uint64
}

// cand is one crossing-edge candidate: the edge, its normalized key (the
// deterministic promotion order), and the far class root.
type cand struct {
	k    uint64
	x, y int
	far  int
}

// sweepClass sweeps class c looking for level-i edges crossing to another
// class, walking its member components in deterministic doubling chunks.
// Chunks that yield no crossing edge are paid for by push-downs: every
// internal non-tree edge scanned moves down one level, so it is never
// rescanned at level i, and the first chunk with internals to push first
// pushes the class's tree edges to level i+1 (the connectivity
// prerequisite — the pushed tree makes the class a single level-(i+1)
// component once flushed). A chunk that scans nothing pays nothing: with
// no observation to amortize, the class's tree stays put and the expensive
// forest links are skipped. The first chunk with crossing candidates ends
// the sweep — in that fast path the sweep writes nothing but the
// promotions. Returns the number of crossing candidates consumed
// (promotions plus demotions; 0 means the class is maximal at level i).
func (g *BatchDynamicConnectivity) sweepClass(s *levelSearch, c *search.Class) int {
	i := s.i
	ls := g.perLevel(i)
	ls.Sweeps++
	g.stats.Rounds++
	canPush := i+1 < len(g.lv) && c.Size <= g.n>>uint(i+1)
	treePushed := false
	nt := g.lv[i].nt
	nw := g.workers
	if nw < 1 {
		nw = 1
	}
	chunk := sweepChunkBase
	var verts []int
	for mi := 0; mi < len(c.Members); mi++ {
		walker := s.f.ComponentWalk(c.Members[mi])
		for {
			verts = walker.Next(verts[:0], chunk)
			if len(verts) == 0 {
				break
			}
			tScan := time.Now()
			var internals [][2]int
			var cands []cand
			scanned := 0
			myRoot := s.grp.Overlay.Find(c.Root)
			if nw == 1 || len(verts) < 2*classifyGrain {
				// Serial fast path: classify each incidence entry as it is
				// scanned, no intermediate buffer. Entry order is map
				// iteration order, but both consumers sort by edge key, so
				// the outcome stays worker-count independent.
				for _, vx := range verts {
					for vy := range nt[vx] {
						scanned++
						far := s.grp.Overlay.Find(s.grp.Overlay.Intern(s.f.ComponentID(vy)))
						if far == myRoot {
							internals = append(internals, [2]int{vx, vy})
						} else {
							cands = append(cands, cand{k: admit.Key(vx, vy), x: vx, y: vy, far: far})
						}
					}
				}
			} else {
				// Parallel scan: workers only read (incidence maps, forest
				// component ids); the overlay classification mutates the
				// union-find (path halving), so it runs sequentially on the
				// merged buffers.
				perW := make([][]obs, nw)
				parallel.WorkersForRangeAuto(g.workers, len(verts), classifyGrain, func(wk, lo, hi int) {
					chaos()
					for idx := lo; idx < hi; idx++ {
						vx := verts[idx]
						for vy := range nt[vx] {
							perW[wk] = append(perW[wk], obs{x: vx, y: vy, id: s.f.ComponentID(vy)})
						}
					}
				})
				for wk := 0; wk < nw; wk++ {
					scanned += len(perW[wk])
					for _, o := range perW[wk] {
						far := s.grp.Overlay.Find(s.grp.Overlay.Intern(o.id))
						if far == myRoot {
							internals = append(internals, [2]int{o.x, o.y})
						} else {
							cands = append(cands, cand{k: admit.Key(o.x, o.y), x: o.x, y: o.y, far: far})
						}
					}
				}
			}
			ls.Scanned += int64(scanned)
			g.addPhase(phSearch, time.Since(tScan), scanned)
			if len(cands) > 0 {
				return g.promoteCands(s, c, cands)
			}
			if canPush && len(internals) > 0 {
				tPush := time.Now()
				moved := 0
				if !treePushed {
					moved += g.pushClassTree(s, c)
					treePushed = true
				}
				moved += g.pushInternals(i, internals)
				g.addPhase(phPushDown, time.Since(tPush), moved)
			}
			chunk *= 2
		}
	}
	return 0
}

// pushClassTree moves every level-i tree edge of the class down to level
// i+1: removed from the te[i] buckets, pended as links into the
// level-(i+1) forest. The pushed set completes exactly the class's
// spanning tree there (its level-≥(i+1) edges are already in that forest),
// so the pending batch stays acyclic and the class becomes one
// level-(i+1) component once flushed.
func (g *BatchDynamicConnectivity) pushClassTree(s *levelSearch, c *search.Class) int {
	i := s.i
	var push [][2]int
	for _, m := range c.Members {
		g.scratch = s.f.ComponentVertices(m, g.scratch[:0])
		for _, vx := range g.scratch {
			for vy := range g.lv[i].te[vx] {
				if vx < vy {
					push = append(push, [2]int{vx, vy})
				}
			}
		}
	}
	if len(push) == 0 {
		return 0
	}
	sort.Slice(push, func(a, b int) bool {
		return admit.Key(push[a][0], push[a][1]) < admit.Key(push[b][0], push[b][1])
	})
	g.ensure(i + 1)
	ls := g.perLevel(i)
	for _, e := range push {
		g.teRemove(i, e[0], e[1])
		g.teInsert(i+1, e[0], e[1])
		g.rec[admit.Key(e[0], e[1])] = edgeRec{level: int32(i + 1), tree: true}
		g.pend[i+1] = append(g.pend[i+1], ufo.Edge{U: e[0], V: e[1], W: 1})
		ls.TreePushed++
		if tePushHook != nil {
			tePushHook(e[0], e[1], i)
		}
	}
	return len(push)
}

// pushInternals moves a chunk's internal non-tree edges down to level i+1
// (bucket moves only — the level-(i+1) connectivity they rely on is the
// class's pushed tree, already pending). Each edge is seen from both
// endpoints, possibly in different chunks: the bucket membership check
// deduplicates.
func (g *BatchDynamicConnectivity) pushInternals(i int, internals [][2]int) int {
	if len(internals) == 0 {
		return 0
	}
	sort.Slice(internals, func(a, b int) bool {
		return admit.Key(internals[a][0], internals[a][1]) < admit.Key(internals[b][0], internals[b][1])
	})
	ls := g.perLevel(i)
	moved := 0
	for _, e := range internals {
		if _, live := g.lv[i].nt[e[0]][e[1]]; !live {
			continue // already moved via its other endpoint
		}
		g.ntRemove(i, e[0], e[1])
		g.ntInsert(i+1, e[0], e[1])
		g.rec[admit.Key(e[0], e[1])] = edgeRec{level: int32(i + 1), tree: false}
		ls.NontreePushed++
		moved++
		if ntPushHook != nil {
			ntPushHook(e[0], e[1], i)
		}
	}
	return moved
}

// promoteCands consumes a sweep's crossing candidates in normalized
// edge-key order (deterministic at every worker count). The overlay
// union-find admits at most one edge per far class; every admitted edge at
// level i ≥ 1 is additionally guarded on current top-level disconnection
// (the static top forest plus the batch's shadow union-find of pending
// promotions) — by forest containment (level-j forest ⊇ level-i forest for
// j ≤ i), endpoints disconnected at the top are disconnected at every
// level the promotion links into, so no pending flush can form a cycle. A
// candidate failing the guard is demoted instead: moved down to the
// finest level where its endpoints are connected, which re-establishes its
// non-tree invariant without touching any forest. At level 0 the overlay
// itself is the top-level guard.
func (g *BatchDynamicConnectivity) promoteCands(s *levelSearch, c *search.Class, cands []cand) int {
	tStart := time.Now()
	sort.Slice(cands, func(a, b int) bool { return cands[a].k < cands[b].k })
	i := s.i
	ls := g.perLevel(i)
	progress, promoted := 0, 0
	for _, cd := range cands {
		myRoot := s.grp.Overlay.Find(c.Root)
		far := s.grp.Overlay.Find(cd.far)
		if far == myRoot {
			continue // another candidate already bridges to this class
		}
		if i > 0 {
			id0x, id0y := g.f0().ComponentID(cd.x), g.f0().ComponentID(cd.y)
			if id0x == id0y || g.shadow0.Same(id0x, id0y) {
				g.demote(i, cd.x, cd.y)
				progress++
				continue
			}
			g.shadow0.Union(id0x, id0y)
		}
		g.ntRemove(i, cd.x, cd.y)
		g.teInsert(i, cd.x, cd.y)
		g.rec[cd.k] = edgeRec{level: int32(i), tree: true}
		for j := i; j >= 0; j-- {
			g.pend[j] = append(g.pend[j], ufo.Edge{U: cd.x, V: cd.y, W: 1})
		}
		s.grp.Absorb(c, far, cd.y)
		ls.Promoted++
		promoted++
		progress++
		if promoteHook != nil {
			promoteHook(cd.x, cd.y, i)
		}
	}
	g.addPhase(phPromote, time.Since(tStart), promoted)
	return progress
}

// demote moves non-tree edge (x,y) from level i down to the finest level
// where its endpoints are currently connected, restoring its level
// invariant. Reached only when a candidate's classes were reconnected at
// coarser levels by other groups' promotions within the same batch; the
// counter makes the path observable. Pending links make the forests'
// connectivity a lower bound here, which can only land the edge coarser
// than necessary — still invariant-preserving.
func (g *BatchDynamicConnectivity) demote(i, x, y int) {
	j := i
	for j > 0 {
		if g.lv[j].f != nil && g.lv[j].f.Connected(x, y) {
			break
		}
		j--
	}
	g.ntRemove(i, x, y)
	g.ntInsert(j, x, y)
	g.rec[admit.Key(x, y)] = edgeRec{level: int32(j), tree: false}
	g.stats.Demotions++
	if demoteHook != nil {
		demoteHook(x, y, i, j)
	}
}
