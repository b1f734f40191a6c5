package ufo

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/parallel"
)

// The batch-update engine as one instrumented phase pipeline.
//
// The paper's batch update (Algorithm 4, §5.2) is level-synchronous: three
// seed phases run once, then five phases repeat per contraction round with
// a barrier between them. Each phase has exactly one implementation,
// expressed over forPhase, a range scheduler that degenerates to an inline
// loop when the engine is sequential (workers == 1) or the phase is below
// the fork grain, and fans out over the configured worker count otherwise.
// The design rules shared by every phase body:
//
//   - Queue membership (roots/del/touched) is claimed with lock-free
//     test-and-set on the cluster flag word and collected into per-worker
//     buffers that are drained into the engine's level queues at the phase
//     barrier, so the shared queues are never written concurrently.
//   - Adjacency sets are guarded by a striped mutex pool hashed on the
//     cluster uid, acquired through lockC/unlockC, which are no-ops on the
//     inline path (no concurrent access exists there). A worker never
//     holds more than one stripe at a time (snapshot-then-act), so lock
//     ordering is trivial and deadlock-free.
//   - Structural decisions (conditional deletion) are computed in a
//     read-only classification pass over the pre-phase state and executed
//     in a second mutation pass, matching the snapshot semantics of the
//     paper's data-parallel loops. Subtree aggregates on shared ancestor
//     chains are updated with atomic adds.
//   - Clusters are arena rows addressed by cref handles (arena.go). The
//     phases pass handles; row pointers are only materialized locally and
//     are stable (chunked storage never moves rows). The one phase that
//     allocates while fanned (matchPairs) reserves spine capacity up
//     front and serializes slot handout under the arena mutex. Slots of
//     clusters deleted by the batch are recycled into the free list at
//     the end of the run — not earlier, because queued edel entries ride
//     dead clusters' former-parent handles until their level is reached.
//
// The cluster hierarchy a fanned run builds can differ from a sequential
// run's (both are valid UFO trees), but the represented forest — and
// therefore every query answer — is identical; the differential suites
// check this against the refforest oracle at several worker counts.
//
// Every phase is timed on the monotonic clock and counted into PhaseStats,
// so batch time can be attributed phase by phase (the work/span accounting
// style of the related batch-dynamic systems) from benchmarks, the bench
// CLI, and servers embedding the forest.

// phaseID indexes the pipeline's phases in PhaseStats order.
type phaseID int

// Pipeline phases, in execution order.
const (
	phSeedCuts phaseID = iota
	phSeedLinks
	phDisconnect
	phMarkParents
	phEdel
	phCondDelete
	phRecluster
	phMaxRepair
	numPhases
)

var phaseNames = [numPhases]string{
	"seed_cuts", "seed_links", "disconnect",
	"mark_parents", "edel", "cond_delete", "recluster", "max_repair",
}

// PhaseStat is the accumulated cost of one pipeline phase over a batch.
type PhaseStat struct {
	Name  string        `json:"name"`
	Calls int           `json:"calls"` // invocations (one per contraction round for level phases)
	Items int64         `json:"items"` // work items processed (phase-specific unit)
	Time  time.Duration `json:"time_ns"`
}

// PhaseStats is the per-phase telemetry of one batch update: monotonic
// wall time, item counts, and calls for every pipeline phase, plus the
// batch shape and the number of contraction rounds processed. The phase
// times are disjoint sub-intervals of Total, so their sum never exceeds
// it; seed_cuts.Items + seed_links.Items always equals Cuts + Links.
type PhaseStats struct {
	Batches int           `json:"batches"` // batches aggregated (1 per engine run)
	Links   int64         `json:"links"`
	Cuts    int64         `json:"cuts"`
	Levels  int           `json:"levels"` // contraction rounds processed
	Total   time.Duration `json:"total_ns"`
	Phases  []PhaseStat   `json:"phases"`
}

// Accumulate merges o into s, phase by phase, for callers aggregating the
// per-batch snapshots across a run of batches (bench experiments, the
// pathserver's cumulative view).
func (s *PhaseStats) Accumulate(o PhaseStats) {
	if len(s.Phases) < len(o.Phases) {
		ph := make([]PhaseStat, len(o.Phases))
		for i := range ph {
			ph[i].Name = o.Phases[i].Name
		}
		copy(ph, s.Phases)
		s.Phases = ph
	}
	s.Batches += o.Batches
	s.Links += o.Links
	s.Cuts += o.Cuts
	s.Levels += o.Levels
	s.Total += o.Total
	for i := range o.Phases {
		s.Phases[i].Calls += o.Phases[i].Calls
		s.Phases[i].Items += o.Phases[i].Items
		s.Phases[i].Time += o.Phases[i].Time
	}
}

// snapshot deep-copies the stats so callers cannot alias the engine's
// accumulation buffer.
func (s PhaseStats) snapshot() PhaseStats {
	out := s
	out.Phases = append([]PhaseStat(nil), s.Phases...)
	return out
}

// phaseSpec is one row of the phase table: a phase identity plus its body.
// Bodies receive the contraction round i (-1 for the seed phases) and
// return the number of items the phase processed.
type phaseSpec struct {
	id  phaseID
	run func(e *engine, i int) int
}

// seedPhases run once, before the level loop: level-0 adjacency updates
// and queue seeding, then disconnection of the affected leaves from stale
// parents.
var seedPhases = [...]phaseSpec{
	{phSeedCuts, func(e *engine, _ int) int { e.seedCuts(); return len(e.cuts) }},
	{phSeedLinks, func(e *engine, _ int) int { e.seedLinks(); return len(e.links) }},
	{phDisconnect, func(e *engine, _ int) int { n := len(e.roots[0]); e.disconnect(); return n }},
}

// levelPhases run once per contraction round i, in table order, with a
// barrier between them (Algorithm 4's per-level structure).
var levelPhases = [...]phaseSpec{
	{phMarkParents, func(e *engine, i int) int { n := len(e.del[i+1]); e.markParents(i); return n }},
	{phEdel, func(e *engine, i int) int { n := len(e.edel[i+1]); e.edelApply(i); return n }},
	{phCondDelete, func(e *engine, i int) int { n := len(e.del[i+1]); e.condDelete(i); return n }},
	{phRecluster, func(e *engine, i int) int { n := len(e.roots[i]); e.recluster(i); return n }},
	{phMaxRepair, func(e *engine, i int) int { return e.repairMax(i) }},
}

// run applies a mixed batch of insertions and deletions by driving the
// phase table, timing every phase into the engine's PhaseStats. Slots of
// clusters the batch deleted are released to the arena free list after
// the last round, when no queue can still reference them.
func (e *engine) run(links []Edge, cuts [][2]int) {
	if e.bMarkParents == nil {
		e.bindPhases()
	}
	e.links, e.cuts = links, cuts
	e.maxLvl = 0
	e.ensureLevel(2)
	e.setup()
	e.beginStats()
	start := time.Now()

	for _, ph := range seedPhases {
		e.runPhase(ph, -1)
	}
	for i := 0; i <= e.maxLvl; i++ {
		if i >= maxLevels {
			panic("ufo: contraction level overflow (balance bug)")
		}
		e.ensureLevel(i + 2)
		for _, ph := range levelPhases {
			e.runPhase(ph, i)
		}
	}
	e.recycleDead()
	e.stats.Levels = e.maxLvl + 1
	e.stats.Total = time.Since(start)
	e.links, e.cuts = nil, nil
}

func (e *engine) runPhase(ph phaseSpec, i int) {
	start := time.Now()
	items := ph.run(e, i)
	st := &e.stats.Phases[ph.id]
	st.Calls++
	st.Items += int64(items)
	st.Time += time.Since(start)
}

// recycleDead drains the workers' dead-slot collections and releases every
// slot the batch killed back to the arena free list.
func (e *engine) recycleDead() {
	for w := range e.ws {
		s := &e.ws[w]
		if len(s.dead) > 0 {
			e.dead = append(e.dead, s.dead...)
			s.dead = s.dead[:0]
		}
	}
	for _, r := range e.dead {
		e.f.a.release(r)
	}
	e.dead = e.dead[:0]
}

// beginStats resets the telemetry for a fresh batch (the accumulation
// buffer is reused across runs; Forest.PhaseStats snapshots it).
func (e *engine) beginStats() {
	if e.stats.Phases == nil {
		e.stats.Phases = make([]PhaseStat, numPhases)
	}
	for i := range e.stats.Phases {
		e.stats.Phases[i] = PhaseStat{Name: phaseNames[i]}
	}
	ph := e.stats.Phases
	e.stats = PhaseStats{Batches: 1, Links: int64(len(e.links)), Cuts: int64(len(e.cuts)), Phases: ph}
}

// parGrain is the smallest per-phase work-list size worth forking for.
// Tests lower it to drive the fanned paths on small inputs.
var parGrain = 192

// nStripes is the size of the adjacency lock pool (power of two);
// stripeShift derives the index width so the two cannot drift apart.
const (
	nStripes    = 1024
	stripeShift = 10 // log2(nStripes)
)

// Compile-time guard: stripeShift must equal log2(nStripes).
const _ = uint(nStripes - 1<<stripeShift)
const _ = uint(1<<stripeShift - nStripes)

// stripedMu pads each mutex to its own cache line.
type stripedMu struct {
	mu sync.Mutex
	_  [56]byte
}

// wscratch is one worker's phase-local collection state. Buffers are
// drained (and reset) at every phase barrier; the struct is exactly 256
// bytes (a cache-line multiple), which keeps workers' append bookkeeping
// off each other's cache lines. The inline path uses worker 0's scratch,
// so one collection protocol serves both configurations.
type wscratch struct {
	roots   []cref    // addRoot collector (phase-dependent level)
	roots2  []cref    // secondary addRoot collector (second level / lo queue)
	del     []cref    // addDel collector
	proc    []cref    // recluster: merged roots needing adjacency lift
	touched []cref    // recluster: parents needing aggregate recomputation
	dirty   []cref    // markMaxDirty collector (rank-tree repair claims)
	dead    []cref    // execDelete collector: slots to recycle after the run
	edel    []edelEnt // addEdel collector
	snap    []EdgeRef // adjacency snapshot (execDelete)
	emptied []cref    // fanned detach: parents emptied, torn down after the phase
	cnt     int       // nEdges delta
	matched int       // pair-matching merge count this round
}

// setup sizes the per-worker scratch for the configured worker count (the
// inline path still needs worker 0's buffers) and allocates the lock pool
// the first time the engine can fan out.
func (e *engine) setup() {
	w := e.f.workers
	if w < 1 {
		w = 1
	}
	if len(e.ws) < w {
		e.ws = make([]wscratch, w)
	}
	if w > 1 && e.stripes == nil {
		e.stripes = make([]stripedMu, nStripes)
	}
}

// par reports whether a phase over n items should fan out.
func (e *engine) par(n int) bool { return e.f.workers > 1 && n >= parGrain }

// forPhase runs body over chunked subranges of [0, n): inline on the
// calling goroutine when the engine is sequential or the phase is below
// the fork grain, fanned out over the configured worker count otherwise.
// fanned is observable by the lock helpers, so one phase body serves both
// configurations; per-worker scratch is drained at the phase barrier
// either way.
func (e *engine) forPhase(n int, body func(s *wscratch, lo, hi int)) {
	if !e.par(n) {
		body(&e.ws[0], 0, n)
		return
	}
	p := e.f.workers
	g := n / (4 * p)
	if g < 16 {
		g = 16
	}
	e.fanned = true
	defer func() { e.fanned = false }()
	parallel.WorkersForRange(p, n, g, func(w, lo, hi int) { body(&e.ws[w], lo, hi) })
}

// mu returns the lock stripe guarding c's adjacency set.
func (e *engine) mu(c *Cluster) *sync.Mutex {
	h := c.uid * 0x9E3779B97F4A7C15 // Fibonacci hashing; top bits are well mixed
	return &e.stripes[h>>(64-stripeShift)].mu
}

// lockC acquires the stripe guarding c during fanned phases; the inline
// path skips locking entirely (no concurrent access exists there).
func (e *engine) lockC(c *Cluster) {
	if e.fanned {
		e.mu(c).Lock()
	}
}

// unlockC releases c's stripe when fanned, yielding at the boundary under
// chaos scheduling (see parChaos).
func (e *engine) unlockC(c *Cluster) {
	if e.fanned {
		e.mu(c).Unlock()
		chaos()
	}
}

// parChaos, when true, yields the processor at every synchronization
// boundary of the fanned phases (debug hook: widens race windows so the
// stress tests explore far more interleavings on few-core hosts).
var parChaos bool

func chaos() {
	if parChaos {
		runtime.Gosched()
	}
}

// drainScratch moves every worker's buffers into the engine's queues at a
// phase barrier. Level arguments say where this phase's collections land;
// phases that do not use a buffer leave it empty, making its level moot.
// Dead-slot collections are NOT drained here — they accumulate in the
// worker scratch until recycleDead at the end of the run.
func (e *engine) drainScratch(rootsLvl, roots2Lvl, delLvl, edelLvl int) {
	for w := range e.ws {
		s := &e.ws[w]
		if len(s.roots) > 0 {
			e.bumpLevel(rootsLvl)
			e.roots[rootsLvl] = append(e.roots[rootsLvl], s.roots...)
			s.roots = s.roots[:0]
		}
		if len(s.roots2) > 0 {
			e.bumpLevel(roots2Lvl)
			e.roots[roots2Lvl] = append(e.roots[roots2Lvl], s.roots2...)
			s.roots2 = s.roots2[:0]
		}
		if len(s.del) > 0 {
			e.bumpLevel(delLvl)
			e.del[delLvl] = append(e.del[delLvl], s.del...)
			s.del = s.del[:0]
		}
		if len(s.edel) > 0 {
			e.bumpLevel(edelLvl)
			e.edel[edelLvl] = append(e.edel[edelLvl], s.edel...)
			s.edel = s.edel[:0]
		}
		if len(s.proc) > 0 {
			e.proc = append(e.proc, s.proc...)
			s.proc = s.proc[:0]
		}
		if len(s.touched) > 0 {
			e.touched = append(e.touched, s.touched...)
			s.touched = s.touched[:0]
		}
		e.f.nEdges += s.cnt
		s.cnt = 0
	}
	e.drainDirty()
}

// collectRoot claims c for the roots queue into the worker buffer.
func (e *engine) collectRoot(s *wscratch, c cref) {
	if c == nilRef {
		return
	}
	h := e.f.a.at(c)
	if h.dead() || !h.trySet(flagInRoots) {
		return
	}
	s.roots = append(s.roots, c)
}

// collectDel claims c for the deletion-candidate queue into the worker
// buffer (the caller guarantees all collected clusters share one level).
// Dead clusters are claimed too: a cluster emptied by the teardown cascade
// (deleteEmpty) dies levels above the round that emptied it, and markParents
// must still walk through it — via its kept former-parent handle — to reach
// the first surviving ancestor, whose contents changed. condDelete skips
// dead entries after the walk.
func (e *engine) collectDel(s *wscratch, c cref) {
	if c == nilRef {
		return
	}
	h := e.f.a.at(c)
	if !h.trySet(flagInDel) {
		return
	}
	s.del = append(s.del, c)
}
