package ufo

import (
	"fmt"
	"sync/atomic"

	"repro/internal/admit"
)

// edelEnt schedules the lazy deletion of one original edge's image at a
// given level: the edge with this key must be removed from the adjacency of
// clusters a and b (either of which may have died by processing time; dead
// clusters keep their former parent handle so propagation can continue —
// which is also why the arena recycles dead slots only after the run).
//
// This implements the E⁻ sets of Algorithm 4 ("Challenge 2"): edges are
// deleted level by level, one level ahead of the reclustering frontier,
// so that degree checks in the conditional-deletion phase see current
// degrees.
type edelEnt struct {
	key  uint64
	a, b cref
}

// engine runs batch updates over a Forest. It is reused across updates to
// amortize allocations; a Forest owns exactly one engine (updates are not
// concurrent). The phase table, scheduler, and telemetry live in
// pipeline.go; this file holds the single implementation of each
// Algorithm-4 phase. All queues hold arena handles.
type engine struct {
	f     *Forest
	links []Edge      // current batch, set for the duration of run
	cuts  [][2]int    //
	roots [][]cref    // roots[l]: parentless clusters at level l awaiting reclustering
	del   [][]cref    // del[l]: level-l clusters to examine for deletion
	edel  [][]edelEnt // edel[l]: lazy edge deletions at level l
	dirty [][]cref    // dirty[l]: level-l clusters claimed for rank-tree repair (trackMax)

	maxLvl int
	// recluster scratch
	hi, lo  []cref // stage-1 (degree ≥ 3) and stage-2 (degree ≤ 2) queues
	proc    []cref // roots that received parents and need adjacency lift
	touched []cref // parents whose aggregates must be recomputed
	// scheduler state (pipeline.go)
	ws      []wscratch  // per-worker buffers (worker 0 serves the inline path)
	stripes []stripedMu // lock stripes hashed by cluster uid
	fanned  bool        // a phase is currently running on multiple workers
	acts    []uint8     // conditional-deletion action per del entry
	cand    []cref      // pair-matching candidate set / disconnect detach list
	dead    []cref      // slots killed this batch, recycled by recycleDead
	stats   PhaseStats  // per-phase telemetry, reset at each run

	// Pre-bound per-round phase bodies (bindPhases). A closure literal at a
	// forPhase call site escapes into the fan-out and so heap-allocates on
	// every invocation; the per-round phases run O(levels) times per batch,
	// which would be the last remaining steady-state allocations once the
	// arena recycles slots. The bodies below are bound once and read their
	// per-round inputs from `round`/`mround` (set immediately before the
	// forPhase call, stable while it runs) instead of capturing locals.
	round  int // level round i of the per-round phase currently running
	mround int // matchPairs proposal round

	bSeedCuts    func(s *wscratch, lo, hi int)
	bSeedLinks   func(s *wscratch, lo, hi int)
	bDisconnect  func(s *wscratch, lo, hi int)
	bDetach      func(s *wscratch, lo, hi int)
	bMarkParents func(s *wscratch, lo, hi int)
	bEdelApply   func(s *wscratch, lo, hi int)
	bClassify    func(s *wscratch, lo, hi int)
	bMutate      func(s *wscratch, lo, hi int)
	bRootSplit   func(s *wscratch, lo, hi int)
	bPropose     func(s *wscratch, lo, hi int)
	bMerge       func(s *wscratch, lo, hi int)
	bLift        func(s *wscratch, lo, hi int)
	bPathAgg     func(s *wscratch, lo, hi int)
	bRepairMax   func(s *wscratch, lo, hi int)
}

func (e *engine) ensureLevel(l int) {
	for len(e.roots) <= l {
		e.roots = append(e.roots, nil)
	}
	for len(e.del) <= l {
		e.del = append(e.del, nil)
	}
	for len(e.edel) <= l {
		e.edel = append(e.edel, nil)
	}
	for len(e.dirty) <= l {
		e.dirty = append(e.dirty, nil)
	}
}

func (e *engine) bumpLevel(l int) {
	e.ensureLevel(l)
	if l > e.maxLvl {
		e.maxLvl = l
	}
}

func (e *engine) addRoot(l int, c cref) {
	if c == nilRef {
		return
	}
	h := e.f.a.at(c)
	if h.dead() || !h.trySet(flagInRoots) {
		return
	}
	e.bumpLevel(l)
	e.roots[l] = append(e.roots[l], c)
}

func (e *engine) addDel(c cref) {
	if c == nilRef {
		return
	}
	h := e.f.a.at(c)
	if h.dead() || !h.trySet(flagInDel) {
		return
	}
	l := int(h.level)
	e.bumpLevel(l)
	e.del[l] = append(e.del[l], c)
}

func (e *engine) addEdel(l int, ent edelEnt) {
	e.bumpLevel(l)
	e.edel[l] = append(e.edel[l], ent)
}

// newCluster allocates and initializes a fresh interior cluster row. The
// slot may be recycled (its row was zeroed at release), so every field is
// (re)written here; handle fields start at nilRef because the zero cref is
// a valid handle. Fanned callers (matchPairs only) serialize slot handout
// under the arena mutex; the uid counter is atomic either way.
func (e *engine) newCluster(level int) cref {
	ar := &e.f.a
	if e.fanned {
		ar.mu.Lock()
	}
	c := ar.allocSlot(e.fanned)
	if e.fanned {
		ar.mu.Unlock()
	}
	h := ar.at(c)
	h.level = int32(level)
	h.leafV = -1
	h.childIdx = -1
	h.pathCnt = 0
	h.uid = e.f.uidSrc.Add(1) - 1
	ar.setParent(h, c, nilRef)
	h.prop, h.center = nilRef, nilRef
	h.children = h.children[:0]
	h.vcnt, h.subSum, h.pathSum = 0, 0, 0
	h.pathMax = negInf
	h.pathMaxKey = 0
	if e.f.trackMax {
		h.flags.Store(flagTrackMax)
		h.subMax = negInf
	} else {
		h.flags.Store(0)
		h.subMax = 0
	}
	return c
}

// bindPhases builds the reusable per-round phase bodies (see the engine
// struct comment). Each body re-reads its inputs from the engine so the
// closure can be allocated once per engine instead of once per phase
// invocation. Bound lazily on the first run.
func (e *engine) bindPhases() {
	ar := &e.f.a
	f := e.f

	e.bSeedCuts = func(s *wscratch, lo, hi int) {
		cuts := e.cuts
		for j := lo; j < hi; j++ {
			c := cuts[j]
			ru, rv := f.leaf(c[0]), f.leaf(c[1])
			lu, lv := ar.at(ru), ar.at(rv)
			key := admit.Key(c[0], c[1])
			e.lockC(lu)
			ok := lu.adj.remove(key)
			e.unlockC(lu)
			if !ok {
				panic(fmt.Sprintf("ufo: cutting absent edge (%d,%d)", c[0], c[1]))
			}
			e.lockC(lv)
			lv.adj.remove(key)
			e.unlockC(lv)
			s.cnt--
			pu, pv := lu.parent, lv.parent
			if pu != nilRef && pv != nilRef && pu != pv {
				s.edel = append(s.edel, edelEnt{key, pu, pv})
			}
			e.collectRoot(s, ru)
			e.collectRoot(s, rv)
			e.collectDel(s, pu)
			e.collectDel(s, pv)
		}
	}

	e.bSeedLinks = func(s *wscratch, lo, hi int) {
		links := e.links
		for j := lo; j < hi; j++ {
			ed := links[j]
			ru, rv := f.leaf(ed.U), f.leaf(ed.V)
			lu, lv := ar.at(ru), ar.at(rv)
			key := admit.Key(ed.U, ed.V)
			e.lockC(lu)
			ok := lu.adj.insert(EdgeRef{to: rv, key: key, w: ed.W, myV: int32(ed.U), otherV: int32(ed.V)})
			e.unlockC(lu)
			if !ok {
				panic(fmt.Sprintf("ufo: duplicate edge (%d,%d)", ed.U, ed.V))
			}
			e.lockC(lv)
			lv.adj.insert(EdgeRef{to: ru, key: key, w: ed.W, myV: int32(ed.V), otherV: int32(ed.U)})
			e.unlockC(lv)
			s.cnt++
			au, av := lu.parent, lv.parent
			myV, otherV := int32(ed.U), int32(ed.V)
			for au != nilRef && av != nilRef && au != av {
				ha, hb := ar.at(au), ar.at(av)
				e.lockC(ha)
				added := ha.adj.insert(EdgeRef{to: av, key: key, w: ed.W, myV: myV, otherV: otherV})
				e.unlockC(ha)
				if added {
					e.lockC(hb)
					hb.adj.insert(EdgeRef{to: au, key: key, w: ed.W, myV: otherV, otherV: myV})
					e.unlockC(hb)
				}
				au, av = ha.parent, hb.parent
			}
			e.collectRoot(s, ru)
			e.collectRoot(s, rv)
			e.collectDel(s, lu.parent)
			e.collectDel(s, lv.parent)
		}
	}

	e.bDisconnect = func(s *wscratch, lo, hi int) {
		roots0 := e.roots[0]
		for j := lo; j < hi; j++ {
			l := roots0[j]
			hl := ar.at(l)
			p := hl.parent
			if p == nilRef {
				continue
			}
			if f.mode == ModeUFO && hl.adj.degree() >= 3 && ar.at(p).center == l {
				continue
			}
			hl.adj.forEach(func(er EdgeRef) bool {
				tp := ar.at(er.to).parent
				if tp != nilRef && tp != p {
					s.edel = append(s.edel, edelEnt{er.key, p, tp})
				}
				return true
			})
			s.roots2 = append(s.roots2, l) // to detach (not a queue claim)
		}
	}

	e.bDetach = func(s *wscratch, lo, hi int) {
		det := e.cand
		for j := lo; j < hi; j++ {
			e.detach(det[j], s)
		}
	}

	e.bMarkParents = func(s *wscratch, lo, hi int) {
		del := e.del[e.round+1]
		for j := lo; j < hi; j++ {
			e.collectDel(s, ar.at(del[j]).parent)
		}
	}

	e.bEdelApply = func(s *wscratch, lo, hi int) {
		ents := e.edel[e.round+1]
		for j := lo; j < hi; j++ {
			ent := ents[j]
			ha, hb := ar.at(ent.a), ar.at(ent.b)
			if !ha.dead() {
				e.lockC(ha)
				ha.adj.remove(ent.key)
				e.unlockC(ha)
			}
			if !hb.dead() {
				e.lockC(hb)
				hb.adj.remove(ent.key)
				e.unlockC(hb)
			}
			pa, pb := ha.parent, hb.parent
			if pa != nilRef && pb != nilRef && pa != pb {
				s.edel = append(s.edel, edelEnt{ent.key, pa, pb})
			}
		}
	}

	e.bClassify = func(s *wscratch, lo, hi int) {
		del := e.del[e.round+1]
		for j := lo; j < hi; j++ {
			c := del[j]
			hc := ar.at(c)
			hc.clear(flagInDel)
			if hc.dead() {
				e.acts[j] = actSkip
				continue
			}
			deg := hc.adj.degree()
			fo := len(hc.children)
			switch {
			case f.mode != ModeUFO || hc.has(flagDamaged) || (deg < 3 && fo < 3):
				e.acts[j] = actDelete
				e.scheduleDelete(c, s)
			case deg >= 3 && hc.parent != nilRef && ar.at(hc.parent).center == c:
				// Intact merge center: remains merged (its siblings'
				// adjacency to it is unchanged).
				e.acts[j] = actKeep
			default:
				// Contents or degree changed: the parent's merge is stale.
				// Disconnect and recluster at this level, scheduling the
				// removal of this cluster's (now stale) edge images above.
				e.acts[j] = actRecluster
				e.scheduleImages(c, s)
				if hc.trySet(flagInRoots) {
					s.roots2 = append(s.roots2, c)
				}
			}
		}
	}

	e.bMutate = func(s *wscratch, lo, hi int) {
		del := e.del[e.round+1]
		for j := lo; j < hi; j++ {
			c := del[j]
			switch e.acts[j] {
			case actDelete:
				e.execDelete(c, s)
			case actRecluster:
				if ar.at(c).parent != nilRef {
					e.detach(c, s)
				}
			}
		}
	}

	e.bRootSplit = func(s *wscratch, lo, hi int) {
		rts := e.roots[e.round]
		for j := lo; j < hi; j++ {
			x := rts[j]
			hx := ar.at(x)
			hx.clear(flagInRoots)
			if hx.dead() || hx.parent != nilRef {
				continue
			}
			if e.isAbsorbCenter(x) {
				s.roots = append(s.roots, x)
			} else {
				s.roots2 = append(s.roots2, x)
			}
		}
	}

	e.bPropose = func(_ *wscratch, lo, hi int) {
		cand := e.cand
		round, seed := e.mround, f.seed
		for j := lo; j < hi; j++ {
			x := cand[j]
			hx := ar.at(x)
			best := nilRef
			var bestH uint64
			hx.adj.forEach(func(er EdgeRef) bool {
				y := er.to
				hy := ar.at(y)
				if hy.parent != nilRef || hy.dead() || hy.adj.degree() > 2 {
					return true
				}
				h := mixUID(hy.uid, round, seed)
				if best == nilRef || h > bestH {
					best, bestH = y, h
				}
				return true
			})
			hx.prop = best
		}
	}

	e.bMerge = func(s *wscratch, lo, hi int) {
		cand := e.cand
		for j := lo; j < hi; j++ {
			x := cand[j]
			hx := ar.at(x)
			y := hx.prop
			if y == nilRef {
				continue
			}
			hy := ar.at(y)
			if hy.prop != x || hx.uid >= hy.uid {
				continue
			}
			p := e.newCluster(e.round + 1)
			ar.attach(p, x)
			ar.attach(p, y)
			e.markMaxDirty(p, s)
			s.proc = append(s.proc, x, y)
			s.matched += 2
		}
	}

	e.bLift = func(s *wscratch, lo, hi int) {
		proc := e.proc
		for j := lo; j < hi; j++ {
			x := proc[j]
			hx := ar.at(x)
			if hx.dead() || hx.parent == nilRef {
				continue
			}
			p := hx.parent
			hp := ar.at(p)
			hx.adj.forEach(func(er EdgeRef) bool {
				py := ar.at(er.to).parent
				if py == nilRef || py == p {
					return true
				}
				hpy := ar.at(py)
				e.lockC(hp)
				added := hp.adj.insert(EdgeRef{to: py, key: er.key, w: er.w, myV: er.myV, otherV: er.otherV})
				e.unlockC(hp)
				if added {
					e.lockC(hpy)
					hpy.adj.insert(EdgeRef{to: p, key: er.key, w: er.w, myV: er.otherV, otherV: er.myV})
					e.unlockC(hpy)
				}
				return true
			})
			if hp.trySet(flagTouched) {
				s.touched = append(s.touched, p)
			}
			if !hp.dead() && hp.trySet(flagInRoots) {
				s.roots2 = append(s.roots2, p)
			}
		}
	}

	e.bPathAgg = func(_ *wscratch, lo, hi int) {
		touched := e.touched
		for j := lo; j < hi; j++ {
			p := touched[j]
			ar.at(p).clear(flagTouched)
			e.computePathAgg(p)
		}
	}

	e.bRepairMax = func(s *wscratch, lo, hi int) {
		d := e.dirty[e.round+1]
		for j := lo; j < hi; j++ {
			e.repairMaxCluster(d[j], s)
		}
	}
}

// seedCuts applies the level-0 half of a cut batch: the affected leaves
// become the level-0 roots, their (old) parents the level-1 deletion
// candidates, and removed edges are scheduled for level-1 lazy deletion.
// Parent handles are stable during seeding (disconnection runs after), so
// the only contention is between cuts sharing an endpoint's stripe.
func (e *engine) seedCuts() {
	e.forPhase(len(e.cuts), e.bSeedCuts)
	e.drainScratch(0, 0, 1, 1)
}

// seedLinks applies the level-0 half of a link batch, including the
// ancestor-chain image insertion (sequential Algorithm 2, line 2): when a
// chain segment survives — an intact superunary center — its image must
// exist for degree checks and quotient consistency; segments that are torn
// down re-derive the image through reclustering. Each original edge is
// owned by one worker and edge keys are unique, so cross-worker conflicts
// are only same-cluster adjacency writes, which the stripes serialize.
func (e *engine) seedLinks() {
	f := e.f
	ar := &f.a
	links := e.links
	e.forPhase(len(links), e.bSeedLinks)
	e.drainScratch(0, 0, 1, 1)
	if f.mode != ModeUFO {
		for _, ed := range links {
			if ar.at(f.leaf(ed.U)).adj.degree() > 3 || ar.at(f.leaf(ed.V)).adj.degree() > 3 {
				panic(fmt.Sprintf("ufo: topology/RC modes require degree <= 3 (edge %d,%d)", ed.U, ed.V))
			}
		}
	}
}

// disconnect detaches the level-0 roots from stale parents and schedules
// the lazy deletion of their stale level-1 edge images (the level-0
// analogue of Algorithm 1's prev.parent ← null): a leaf whose adjacency
// changed invalidates its parent's merge unless it is the intact
// high-degree center of a superunary merge (UFO mode only; topology trees
// always tear down the full ancestor path). A read-only pass collects the
// stale-image deletions and the leaves to detach — using pre-detach
// parents for every edel entry; both endpoints of a doubly-moved edge
// schedule its image, and edel removals are idempotent — then a mutation
// pass detaches under the parent's lock stripe.
func (e *engine) disconnect() {
	e.forPhase(len(e.roots[0]), e.bDisconnect)
	// Flatten the detach lists before draining resets them.
	e.cand = e.cand[:0]
	for w := range e.ws {
		s := &e.ws[w]
		e.cand = append(e.cand, s.roots2...)
		s.roots2 = s.roots2[:0]
	}
	e.drainScratch(0, 0, 0, 1)
	e.forPhase(len(e.cand), e.bDetach)
	e.teardownEmptied()
	e.drainDirty()
	e.cand = e.cand[:0]
}

// markParents implements phase 1 at round i: the parents of everything
// examined at level i+1 are candidates at level i+2 (their contents
// transitively changed).
func (e *engine) markParents(i int) {
	e.round = i
	e.forPhase(len(e.del[i+1]), e.bMarkParents)
	e.drainScratch(0, 0, i+2, 0)
}

// edelApply implements phase 2 at round i: remove the scheduled edge
// images at level i+1 and propagate surviving images one level further
// while both sides' parent chains persist. Parent handles and dead flags
// are stable during this phase.
func (e *engine) edelApply(i int) {
	e.round = i
	e.forPhase(len(e.edel[i+1]), e.bEdelApply)
	e.drainScratch(0, 0, 0, i+2)
	e.edel[i+1] = e.edel[i+1][:0]
}

// Conditional-deletion actions (condDelete classification).
const (
	actSkip uint8 = iota
	actDelete
	actKeep
	actRecluster
)

// condDelete implements phase 3 (Algorithm 4 lines 11-19) as
// classify-then-mutate: pass 1 decides every cluster's fate and collects
// the scheduling side effects from the pre-phase state (the paper's
// data-parallel semantics — every degree and parent is read as of the
// start of the phase; duplicate E⁻ entries from both endpoints of a
// doubly-affected edge are benign because image removal is idempotent).
// Pass 2 executes the structural mutations with lock-striped adjacency
// surgery and atomic aggregate updates. Only low-degree, low-fanout
// clusters are deleted; high-fanout ones are disconnected and
// reclustered; a high-degree cluster that is still the intact center of
// its parent's merge stays put. In topology mode every examined cluster
// is deleted (fanout and degree are constant-bounded, so this is O(1) per
// cluster).
func (e *engine) condDelete(i int) {
	n := len(e.del[i+1])
	if cap(e.acts) < n {
		e.acts = make([]uint8, n)
	} else {
		e.acts = e.acts[:n]
	}
	e.round = i
	e.forPhase(n, e.bClassify)
	e.drainScratch(i, i+1, 0, i+2)
	e.forPhase(n, e.bMutate)
	e.teardownEmptied()
	e.drainDirty()
	e.del[i+1] = e.del[i+1][:0]
}

// scheduleDelete collects the queue side effects of deleting c: its
// children become roots one level down, and its incident edge images are
// scheduled for lazy deletion above. s == nil routes directly into the
// engine queues (serial recluster stages); otherwise entries land in the
// worker scratch, whose drain levels are fixed by the owning phase.
func (e *engine) scheduleDelete(c cref, s *wscratch) {
	hc := e.f.a.at(c)
	for _, y := range hc.children {
		if s == nil {
			e.addRoot(int(hc.level)-1, y)
		} else {
			e.collectRoot(s, y)
		}
	}
	e.scheduleImages(c, s)
}

// scheduleImages schedules the lazy deletion of c's edge images inside its
// parent, one level up (they become stale the moment c leaves the merge).
func (e *engine) scheduleImages(c cref, s *wscratch) {
	ar := &e.f.a
	hc := ar.at(c)
	fp := hc.parent
	if fp == nilRef {
		return
	}
	hc.adj.forEach(func(er EdgeRef) bool {
		tp := ar.at(er.to).parent
		if tp != nilRef && tp != fp {
			ent := edelEnt{er.key, fp, tp}
			if s == nil {
				e.addEdel(int(hc.level)+1, ent)
			} else {
				s.edel = append(s.edel, ent)
			}
		}
		return true
	})
}

// execDelete removes c structurally: the mutation half of a deletion,
// whose queue side effects (children as roots, E⁻ images) were already
// collected by scheduleDelete. Children are released, c is detached from
// its parent (keeping the handle for lazy edge propagation), and its
// adjacency is snapshot under c's own stripe and removed from neighbors
// one stripe at a time (never holding two locks). The slot itself is
// recycled only after the run (recycleDead), because the kept former-parent
// handle is still read by later edel rounds.
func (e *engine) execDelete(c cref, s *wscratch) {
	ar := &e.f.a
	hc := ar.at(c)
	for _, y := range hc.children {
		hy := ar.at(y)
		ar.setParent(hy, y, nilRef)
		hy.childIdx = -1
		if ar.trackMax {
			// The dying cluster's child rank tree goes with it.
			ar.coldAt(y).childItem = nil
		}
	}
	hc.children = hc.children[:0]
	hc.center = nilRef
	if ar.trackMax {
		cd := ar.coldAt(c)
		cd.childTree = nil
		for i := range cd.rtOrphans {
			cd.rtOrphans[i] = nil
		}
		cd.rtOrphans = cd.rtOrphans[:0]
		cd.rtNew = cd.rtNew[:0]
		cd.rtStale = cd.rtStale[:0]
	}
	fp := hc.parent
	if fp != nilRef {
		e.detach(c, s)
		// Former-parent handle: lets edel entries ride upward. Mirrored
		// into the packed column too (dead clusters are unreachable from
		// queries, but the column stays an exact row mirror for Validate).
		ar.setParent(hc, c, fp)
	}
	e.lockC(hc)
	s.snap = s.snap[:0]
	hc.adj.forEach(func(er EdgeRef) bool {
		s.snap = append(s.snap, er)
		return true
	})
	hc.adj.clear()
	e.unlockC(hc)
	for _, er := range s.snap {
		ht := ar.at(er.to)
		e.lockC(ht)
		ht.adj.remove(er.key)
		e.unlockC(ht)
	}
	hc.set(flagDead)
	s.dead = append(s.dead, c)
}

// detach removes c from its parent, keeping subtree aggregates of the
// ancestor chain correct and flagging the parent as damaged when it loses
// its merge center (its remaining children would be mutually
// disconnected) or its last child. Ancestor chains are shared between
// concurrent detaches of a fanned phase, so aggregates use atomic adds;
// parent handles are stable within a phase, and the child-list surgery
// runs under the parent's stripe. With trackMax the rank-tree deletion is
// deferred: the child's item handle moves to the parent's rtOrphans
// buffer (serialized by the same stripe) and the parent is claimed for
// the post-phase repair pass (s == nil claims directly, serial stages).
// A parent the detach empties is torn down at once on the inline path and
// after the phase when fanned.
func (e *engine) detach(c cref, s *wscratch) {
	ar := &e.f.a
	hc := ar.at(c)
	p := hc.parent
	if p == nilRef {
		return
	}
	hp := ar.at(p)
	e.lockC(hp)
	if hp.has(flagTrackMax) {
		cd := ar.coldAt(c)
		if cd.childItem != nil {
			pcd := ar.coldAt(p)
			pcd.rtOrphans = append(pcd.rtOrphans, cd.childItem)
			cd.childItem = nil
		}
	}
	last := int32(len(hp.children) - 1)
	moved := hp.children[last]
	hp.children[hc.childIdx] = moved
	ar.at(moved).childIdx = hc.childIdx
	hp.children = hp.children[:last]
	if hp.center == c {
		hp.center = nilRef
		if len(hp.children) > 0 {
			hp.set(flagDamaged)
		}
	}
	emptied := len(hp.children) == 0
	if emptied {
		hp.set(flagDamaged)
	}
	e.unlockC(hp)
	if e.fanned {
		for q := p; q != nilRef; {
			hq := ar.at(q)
			atomic.AddInt64(&hq.subSum, -hc.subSum)
			atomic.AddInt64(&hq.vcnt, -hc.vcnt)
			q = hq.parent
		}
	} else {
		// Inline path: plain adds — the atomic ancestor walk is the one
		// measurable cost of the unified body on deep sequential chains.
		for q := p; q != nilRef; {
			hq := ar.at(q)
			hq.subSum -= hc.subSum
			hq.vcnt -= hc.vcnt
			q = hq.parent
		}
	}
	ar.setParent(hc, c, nilRef)
	hc.childIdx = -1
	e.markMaxDirty(p, s)
	if !emptied {
		return
	}
	if e.fanned {
		// Another worker's ancestor walk may still pass through p, so p
		// is torn down only after the phase (teardownEmptied).
		s.emptied = append(s.emptied, p)
	} else {
		e.deleteEmpty(p, s)
	}
}

// teardownEmptied deletes, on the calling goroutine, the parents that the
// detaches of a fanned phase emptied. It runs once the phase's workers
// have returned, so no ancestor walk can still read or update them; by
// then their aggregates have drained to zero, and the teardown cascades
// upward like the inline path's.
func (e *engine) teardownEmptied() {
	for w := range e.ws {
		s := &e.ws[w]
		for _, p := range s.emptied {
			e.deleteEmpty(p, s)
		}
		s.emptied = s.emptied[:0]
	}
}

// deleteEmpty tears down a cluster that just lost its last child. The
// pointer engine abandoned such clusters to the garbage collector (they
// are unreachable from every leaf, so nothing ever examined them again);
// with arena storage the slot must be flagged dead explicitly so
// recycleDead can recycle it. Any residual adjacency is stale by
// definition — an empty cluster contains no vertices — and is torn down
// symmetrically by execDelete; the matching stale images one level up
// were already scheduled by the departing children, exactly as before.
// The caller observed the 1→0 child transition under p's stripe, so p is
// torn down once; a fanned phase queues it for teardownEmptied instead of
// calling this from a worker. Cascades upward when removing p empties its
// own parent in turn.
func (e *engine) deleteEmpty(p cref, s *wscratch) {
	if e.f.a.at(p).dead() {
		return
	}
	if s == nil {
		s = &e.ws[0]
	}
	e.execDelete(p, s)
}

// stealLeaf detaches the degree-1 cluster y from its current parent q so a
// high-degree root can absorb it. If y was q's merge center, q's remaining
// children would be mutually disconnected; since a degree-1 center bounds
// q's fanout by 2, we release the lone sibling and delete q (cheap). The
// released sibling re-enters the recluster queues. Runs only from the
// serial stage-1 loop, so side effects go directly into the engine queues.
func (e *engine) stealLeaf(y cref) {
	ar := &e.f.a
	q := ar.at(y).parent
	hq := ar.at(q)
	wasCenter := hq.center == y
	if wasCenter || len(hq.children) == 1 {
		// q will not survive the steal; schedule its stale edge images
		// before the teardown cascade inside detach clears its adjacency.
		e.scheduleImages(q, nil)
	}
	e.detach(y, nil)
	switch {
	case hq.dead():
		// y was q's last child: detach tore q down already.
	case wasCenter:
		// Releasing the siblings empties q; the final detach tears q down.
		for len(hq.children) > 0 {
			z := hq.children[0]
			e.detach(z, nil)
			e.addReclusterItem(z)
		}
	default:
		e.scheduleAncestors(q)
	}
}

// scheduleAncestors marks q's parent chain stale after q's membership
// changed: q's parent is examined at the next level, and if q has no parent
// it must recluster at its own level.
func (e *engine) scheduleAncestors(q cref) {
	hq := e.f.a.at(q)
	if hq.parent != nilRef {
		e.addDel(hq.parent)
	} else {
		e.addRoot(int(hq.level), q)
	}
}

// addReclusterItem routes a parentless cluster to the absorb stage (hi) or
// the chain-matching stage (lo) according to the mode's rake rule: UFO
// absorbs around degree ≥ 3 clusters, RC rakes around any cluster of degree
// ≥ 2 with a degree-1 neighbor, and topology trees only pair.
func (e *engine) addReclusterItem(z cref) {
	if e.isAbsorbCenter(z) {
		e.hi = append(e.hi, z)
	} else {
		e.lo = append(e.lo, z)
	}
}

func (e *engine) isAbsorbCenter(z cref) bool {
	ar := &e.f.a
	hz := ar.at(z)
	switch e.f.mode {
	case ModeUFO:
		return hz.adj.degree() >= 3
	case ModeRC:
		if hz.adj.degree() < 2 {
			return false
		}
		hasLeaf := false
		hz.adj.forEach(func(er EdgeRef) bool {
			if ar.at(er.to).adj.degree() == 1 {
				hasLeaf = true
				return false
			}
			return true
		})
		return hasLeaf
	default:
		return false
	}
}

// recluster merges the parentless level-i clusters maximally (Algorithm 2 /
// the matching step of Algorithm 4):
//
//  1. every high-degree root creates a superunary parent and absorbs all
//     its degree-1 neighbors (stealing them from stale parents if needed);
//  2. remaining degree ≤ 2 roots pair greedily with unmerged neighbors —
//     other roots, unmerged non-roots (adopting their fanout-1 parents), or
//     high-degree families (a degree-1 root joins the superunary merge);
//  3. adjacency is lifted to level i+1 and parent aggregates recomputed.
//
// Root classification, the adjacency lift, and the aggregate refresh run
// over forPhase; when the engine can fan out, the bulk of stage 2 first
// runs as a randomized mutual-proposal maximal matching (matchPairs) whose
// leftovers fall through to the greedy loop — pure optimization, the
// greedy loop alone is the complete stage-2 implementation.
func (e *engine) recluster(i int) {
	ar := &e.f.a
	rts := e.roots[i]
	if len(rts) == 0 {
		return
	}
	e.hi = e.hi[:0]
	e.lo = e.lo[:0]
	e.proc = e.proc[:0]
	e.touched = e.touched[:0]
	topo := e.f.mode == ModeTopology
	e.round = i
	e.forPhase(len(rts), e.bRootSplit)
	for w := range e.ws {
		s := &e.ws[w]
		e.hi = append(e.hi, s.roots...)
		e.lo = append(e.lo, s.roots2...)
		s.roots = s.roots[:0]
		s.roots2 = s.roots2[:0]
	}
	e.roots[i] = e.roots[i][:0]

	// Stage 1: high-degree roots (processed first so that the strong
	// maximality invariant — high-degree clusters absorb all degree-1
	// neighbors — holds before pair matching can capture those leaves).
	for k := 0; k < len(e.hi); k++ {
		x := e.hi[k]
		hx := ar.at(x)
		if hx.dead() || hx.parent != nilRef {
			continue
		}
		if !e.isAbsorbCenter(x) {
			e.lo = append(e.lo, x)
			continue
		}
		p := e.newCluster(i + 1)
		ar.attach(p, x)
		ar.at(p).center = x
		e.markMaxDirty(p, nil)
		hx.adj.forEach(func(er EdgeRef) bool {
			y := er.to
			hy := ar.at(y)
			if hy.adj.degree() == 1 {
				if hy.parent != nilRef {
					e.stealLeaf(y)
				}
				if hy.parent == nilRef {
					ar.attach(p, y)
				}
			}
			return true
		})
		e.proc = append(e.proc, x)
	}

	// Stage 2a (fanned only): maximal matching over the root-root pair
	// merges, which are the bulk of any contraction round. Leftover cases
	// (adoptions, superunary joins, singletons) fall through to stage 2b.
	if e.par(len(e.lo)) {
		e.matchPairs(i)
	}

	// Stage 2b: greedy maximal matching of degree ≤ 2 roots along chains.
	for k := 0; k < len(e.lo); k++ {
		x := e.lo[k]
		hx := ar.at(x)
		if hx.dead() || hx.parent != nilRef {
			continue
		}
		dx := hx.adj.degree()
		if dx == 0 {
			continue // fully contracted component root
		}
		merged := false
		hx.adj.forEach(func(er EdgeRef) bool {
			y := er.to
			hy := ar.at(y)
			dy := hy.adj.degree()
			// Pairwise-mergeable neighbors: any two degree ≤ 2 clusters;
			// topology mode additionally allows the degree-1/degree-3
			// pair; RC compress never involves degree ≥ 3 clusters (in
			// UFO mode stage-2 roots always have degree ≤ 2 already).
			var pairable bool
			switch e.f.mode {
			case ModeTopology:
				pairable = (dx <= 2 && dy <= 2) || (dx == 1 && dy == 3) || (dx == 3 && dy == 1)
			case ModeRC:
				pairable = dx <= 2 && dy <= 2
			default:
				pairable = dy <= 2
			}
			if pairable {
				if hy.parent == nilRef {
					p := e.newCluster(i + 1)
					ar.attach(p, x)
					ar.attach(p, y)
					e.markMaxDirty(p, nil)
					e.proc = append(e.proc, y)
					merged = true
					return false
				}
				if len(ar.at(hy.parent).children) == 1 {
					q := hy.parent
					ar.attach(q, x)
					e.markMaxDirty(q, nil)
					e.scheduleAncestors(q)
					merged = true
					return false
				}
				return true
			}
			// UFO mode, dy >= 3: only a degree-1 root may join the
			// high-degree cluster's superunary family.
			if !topo && dx == 1 && dy >= 3 {
				q := hy.parent
				if q == nilRef {
					return true // defensive; stage 1 parents all high-degree roots
				}
				hq := ar.at(q)
				if hq.center == nilRef && len(hq.children) == 1 {
					hq.center = y
				}
				if hq.center == y {
					ar.attach(q, x)
					e.markMaxDirty(q, nil)
					e.scheduleAncestors(q)
					merged = true
					return false
				}
			}
			return true
		})
		if !merged {
			p := e.newCluster(i + 1)
			ar.attach(p, x)
			e.markMaxDirty(p, nil)
		}
		e.proc = append(e.proc, x)
	}

	// Stage 3: lift adjacency to level i+1 and refresh parent aggregates.
	e.lift(i)
	e.pathAgg()
}

// mixUID is a splitmix64-style hash giving every cluster a fresh random
// priority each matching round (deterministic for a given forest seed).
func mixUID(uid uint64, round int, seed uint64) uint64 {
	z := uid + seed + uint64(round)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// maxMatchRounds bounds the mutual-proposal matching fixpoint; the greedy
// stage-2b loop picks up anything left (termination is guaranteed without
// the cap — each round matches at least one mutual pair while any eligible
// pair exists — this is a defensive bound).
const maxMatchRounds = 64

// matchPairs runs the randomized mutual-proposal maximal matching over the
// root-root pair merges of stage 2 (the bulk of a contraction round):
// every unmatched root proposes to its highest-priority eligible neighbor;
// mutual proposals merge under a fresh parent (created by the smaller-uid
// side, so exactly one worker touches each pair). While any eligible pair
// remains, the round's globally highest-priority root always receives a
// mutual proposal, so every round makes progress and the fixpoint is a
// maximal matching in O(log) rounds with high probability. Leftovers
// (adoptions, superunary joins, singletons) are handled by the greedy
// stage-2b loop that follows.
//
// This is the one phase that allocates clusters while fanned: each merge
// round reserves arena spine capacity for its worst case up front (growing
// the chunk spine concurrently with readers would race) and slot handout
// itself is serialized by the arena mutex inside newCluster.
func (e *engine) matchPairs(i int) {
	ar := &e.f.a
	e.cand = e.cand[:0]
	for _, x := range e.lo {
		hx := ar.at(x)
		if hx.dead() || hx.parent != nilRef {
			continue
		}
		if d := hx.adj.degree(); d >= 1 && d <= 2 {
			e.cand = append(e.cand, x)
		}
	}
	e.round = i
	for round := 0; len(e.cand) > 1 && round < maxMatchRounds; round++ {
		cand := e.cand
		ar.reserve(len(cand)/2 + 1)
		e.mround = round
		e.forPhase(len(cand), e.bPropose)
		e.forPhase(len(cand), e.bMerge)
		matched := 0
		for w := range e.ws {
			s := &e.ws[w]
			e.proc = append(e.proc, s.proc...)
			s.proc = s.proc[:0]
			matched += s.matched
			s.matched = 0
		}
		if matched == 0 {
			break
		}
		out := e.cand[:0]
		for _, x := range cand {
			hx := ar.at(x)
			hx.prop = nilRef
			if hx.parent == nilRef {
				out = append(out, x)
			}
		}
		e.cand = out
	}
	for _, x := range e.cand {
		ar.at(x).prop = nilRef
	}
	e.cand = e.cand[:0]
	e.drainDirty()
}

// lift is stage 3's adjacency lift: every processed root's level-i edges
// are imaged into its new parent. When both endpoints lift the same edge
// concurrently, each side's primary insert succeeds at most once and every
// successful primary attempts the mirror, so both sides end with exactly
// one symmetric entry regardless of the interleaving.
func (e *engine) lift(i int) {
	e.round = i
	e.forPhase(len(e.proc), e.bLift)
	e.drainScratch(0, i+1, 0, 0)
}

// pathAgg recomputes the touched parents' cluster-path aggregates: all
// inputs (adjacency, children) are stable after the lift barrier and every
// touched parent is visited exactly once, so no locks are needed.
func (e *engine) pathAgg() {
	e.forPhase(len(e.touched), e.bPathAgg)
	e.touched = e.touched[:0]
}

// computePathAgg recomputes the cluster-path aggregates of p from its
// children and its (freshly lifted) adjacency. Only binary clusters whose
// two crossing edges land at distinct boundary vertices carry a non-trivial
// cluster path; they always have fanout ≤ 2, so this is O(1).
func (e *engine) computePathAgg(p cref) {
	ar := &e.f.a
	hp := ar.at(p)
	hp.pathSum = 0
	hp.pathMax = negInf
	hp.pathMaxKey = 0
	hp.pathCnt = 0
	if hp.adj.degree() != 2 {
		return
	}
	var es [2]EdgeRef
	idx := 0
	hp.adj.forEach(func(er EdgeRef) bool {
		es[idx] = er
		idx++
		return true
	})
	if es[0].myV == es[1].myV {
		return
	}
	switch len(hp.children) {
	case 1:
		hc := ar.at(hp.children[0])
		hp.pathSum = hc.pathSum
		hp.pathMax = hc.pathMax
		hp.pathMaxKey = hc.pathMaxKey
		hp.pathCnt = hc.pathCnt
	case 2:
		a, b := hp.children[0], hp.children[1]
		g, ok := ar.edgeBetween(a, b)
		if !ok {
			panic("ufo: pair merge without a connecting edge")
		}
		// Each child holds exactly one of the two crossing edges (both
		// children have degree ≤ 2 in a pair merge).
		if !ar.at(a).adj.has(es[0].key) {
			a, b = b, a
			g = EdgeRef{to: a, key: g.key, w: g.w, myV: g.otherV, otherV: g.myV}
		}
		ha, hb := ar.at(a), ar.at(b)
		hp.pathSum = ha.pathSum + g.w + hb.pathSum
		mx, mk := wkMax(ha.pathMax, ha.pathMaxKey, g.w, g.key)
		hp.pathMax, hp.pathMaxKey = wkMax(mx, mk, hb.pathMax, hb.pathMaxKey)
		hp.pathCnt = ha.pathCnt + 1 + hb.pathCnt
	default:
		// UFO-mode superunary clusters have a single boundary vertex, so
		// this is unreachable there; in RC mode a rake center may have
		// degree 2, in which case both crossing edges are the center's
		// and the cluster path is the center's own path (leaves hang off
		// it).
		if hp.center == nilRef {
			panic("ufo: fanout >= 3 without a center")
		}
		hc := ar.at(hp.center)
		if !hc.adj.has(es[0].key) || !hc.adj.has(es[1].key) {
			panic("ufo: superunary cluster with crossing edges outside its center")
		}
		hp.pathSum = hc.pathSum
		hp.pathMax = hc.pathMax
		hp.pathMaxKey = hc.pathMaxKey
		hp.pathCnt = hc.pathCnt
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// wkMax returns the lexicographically larger of two (weight, edge-key)
// pairs under the total edge order the argmax aggregates use: weight
// first, the normalized edge key breaking ties toward the larger key.
// (negInf, 0) is the identity.
func wkMax(w1 int64, k1 uint64, w2 int64, k2 uint64) (int64, uint64) {
	if w1 > w2 || (w1 == w2 && k1 > k2) {
		return w1, k1
	}
	return w2, k2
}
