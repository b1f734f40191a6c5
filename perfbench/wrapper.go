package main

import (
	"sync"
	"time"

	ufotree "repro"
)

// tracedForest is the BatchForest handed to NewBatcher in serve-zipf's
// traced steps. It records a span around every batch engine call the
// Batcher makes — with the engine's PhaseStats phases as child spans for
// updates — and counts the admission layer's point calls (ComponentID,
// HasEdge, Connected) with their total time instead of one span each. It
// forwards every optional interface the Batcher looks for, so admission
// and the query paths run exactly as on the bare forest.
type tracedForest struct {
	ufotree.BatchForest
	q  ufotree.BatchQuerier
	c  ufotree.ComponentIDer
	qe ufotree.QueryEngine
	t  *tracer

	mu  sync.Mutex
	agg engineCalls
}

// Compile-time checks: the Batcher enables its fast paths by these type
// assertions, so a missing method would silently change what is measured.
var (
	_ ufotree.BatchForest              = (*tracedForest)(nil)
	_ ufotree.ComponentIDer            = (*tracedForest)(nil)
	_ ufotree.BatchQuerier             = (*tracedForest)(nil)
	_ ufotree.BatchConnectivityQuerier = (*tracedForest)(nil)
	_ ufotree.QueryEngine              = (*tracedForest)(nil)
)

// callAgg totals one kind of engine call: calls, items (edges or pairs),
// wall time inside the call, and for updates the engine's own
// PhaseStats.Total.
type callAgg struct {
	calls, items int64
	wall, engine time.Duration
}

// engineCalls is everything the wrapper saw during one step.
type engineCalls struct {
	link, cut                           callAgg
	connected, pathSum, pathMax         callAgg
	componentID, hasEdge, pointConnects callAgg
}

// newTracedForest wraps f, which must be the UFO forest from ufotree.New.
func newTracedForest(f ufotree.BatchForest, t *tracer) *tracedForest {
	return &tracedForest{
		BatchForest: f,
		q:           f.(ufotree.BatchQuerier),
		c:           f.(ufotree.ComponentIDer),
		qe:          f.(ufotree.QueryEngine),
		t:           t,
	}
}

// take returns the calls seen since the last take and resets the totals.
func (w *tracedForest) take() engineCalls {
	w.mu.Lock()
	defer w.mu.Unlock()
	a := w.agg
	w.agg = engineCalls{}
	return a
}

func (w *tracedForest) count(a *callAgg, items int, t0, t1 time.Time, engine time.Duration) {
	w.mu.Lock()
	a.calls++
	a.items += int64(items)
	a.wall += t1.Sub(t0)
	a.engine += engine
	w.mu.Unlock()
}

func (w *tracedForest) BatchLink(edges []ufotree.Edge) {
	t0 := time.Now()
	w.BatchForest.BatchLink(edges)
	t1 := time.Now()
	ps := w.BatchForest.PhaseStats()
	w.t.call("ufo.BatchLink", t0, t1, "ufo.engine", &ps)
	w.count(&w.agg.link, len(edges), t0, t1, ps.Total)
}

func (w *tracedForest) BatchCut(edges []ufotree.Edge) {
	t0 := time.Now()
	w.BatchForest.BatchCut(edges)
	t1 := time.Now()
	ps := w.BatchForest.PhaseStats()
	w.t.call("ufo.BatchCut", t0, t1, "ufo.engine", &ps)
	w.count(&w.agg.cut, len(edges), t0, t1, ps.Total)
}

func (w *tracedForest) BatchConnected(pairs [][2]int) []bool {
	t0 := time.Now()
	out := w.q.BatchConnected(pairs)
	t1 := time.Now()
	w.t.call("ufo.BatchConnected", t0, t1, "", nil)
	w.count(&w.agg.connected, len(pairs), t0, t1, 0)
	return out
}

func (w *tracedForest) BatchPathSum(pairs [][2]int) ([]int64, []bool) {
	t0 := time.Now()
	v, ok := w.q.BatchPathSum(pairs)
	t1 := time.Now()
	w.t.call("ufo.BatchPathSum", t0, t1, "", nil)
	w.count(&w.agg.pathSum, len(pairs), t0, t1, 0)
	return v, ok
}

func (w *tracedForest) BatchPathMax(pairs [][2]int) ([]int64, []bool) {
	t0 := time.Now()
	v, ok := w.q.BatchPathMax(pairs)
	t1 := time.Now()
	w.t.call("ufo.BatchPathMax", t0, t1, "", nil)
	w.count(&w.agg.pathMax, len(pairs), t0, t1, 0)
	return v, ok
}

func (w *tracedForest) ComponentID(u int) uint64 {
	t0 := time.Now()
	id := w.c.ComponentID(u)
	w.count(&w.agg.componentID, 1, t0, time.Now(), 0)
	return id
}

func (w *tracedForest) HasEdge(u, v int) bool {
	t0 := time.Now()
	ok := w.BatchForest.HasEdge(u, v)
	w.count(&w.agg.hasEdge, 1, t0, time.Now(), 0)
	return ok
}

func (w *tracedForest) Connected(u, v int) bool {
	t0 := time.Now()
	ok := w.BatchForest.Connected(u, v)
	w.count(&w.agg.pointConnects, 1, t0, time.Now(), 0)
	return ok
}

// The Batcher never calls these in serve-zipf; they forward untraced.

func (w *tracedForest) BatchSubtreeSum(pairs [][2]int) []int64 { return w.q.BatchSubtreeSum(pairs) }
func (w *tracedForest) BatchLCA(triples [][3]int) ([]int, []bool) {
	return w.q.BatchLCA(triples)
}
func (w *tracedForest) SetQueryMode(m ufotree.QueryMode) { w.qe.SetQueryMode(m) }
func (w *tracedForest) QueryMode() ufotree.QueryMode     { return w.qe.QueryMode() }
func (w *tracedForest) QueryStats() ufotree.QueryStats   { return w.qe.QueryStats() }
