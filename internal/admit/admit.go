// Package admit is the one pre-mutation check behind every batch entry
// point of this module: the forest engines' BatchLink/BatchCut (UFO,
// ternarized topology/RC, Euler-tour trees), the graph layers'
// BatchAddEdges/BatchDeleteEdges, and the serve layer's validators and
// per-operation admission. It holds the typed errors those entry points
// report, the orientation-free edge key they all index edges by, and the
// check itself.
//
// A batch is checked before its first write, so a rejected batch leaves
// the structure exactly as it was. The check walks the batch in order and
// reports the first edge that breaks a rule, applying the rules to each
// edge in this order:
//
//  1. an endpoint outside [0, n) (ErrVertexRange);
//  2. a self loop (ErrSelfLoop);
//  3. an edge repeated in the batch, in either orientation
//     (ErrDuplicateEdge for inserts, ErrAbsentCut for deletes, since the
//     repeat would apply to an edge the batch already changed);
//  4. an insert of an edge already present (ErrDuplicateEdge) or a
//     delete of an edge that is absent (ErrAbsentCut).
//
// Presence comes from a test the caller supplies, so every structure keeps
// its own edge index. Links that would close a cycle are not this check's
// business: the serve layer adds that rule (ErrWouldCycle) on top.
//
// The package is a leaf: it imports only the standard library, so the
// engines, the graph layers and the serve layer can all depend on it.
package admit

import (
	"errors"
	"fmt"
)

// Typed errors of the check and of the serve layer. Violations wrap them
// with the offending edge; match with errors.Is. The facade (ufotree) and
// internal/serve re-export these values, so every layer agrees on their
// identity.
var (
	// ErrSelfLoop reports a link or cut whose endpoints coincide.
	ErrSelfLoop = errors.New("ufotree: self loop")
	// ErrDuplicateEdge reports a link of an edge that is already present,
	// or repeated inside one batch in either orientation.
	ErrDuplicateEdge = errors.New("ufotree: duplicate edge")
	// ErrAbsentCut reports a cut of an edge that is not present (or was
	// already cut earlier in the same batch).
	ErrAbsentCut = errors.New("ufotree: cutting absent edge")
	// ErrWouldCycle reports a link whose endpoints are already connected —
	// the one violation the engines do NOT pre-validate (a cycle-closing
	// batch corrupts a forest rather than panicking), which is why a
	// server must check it up front.
	ErrWouldCycle = errors.New("ufotree: link would close a cycle")
	// ErrVertexRange reports an endpoint outside [0, n).
	ErrVertexRange = errors.New("ufotree: vertex out of range")
	// ErrUnsupported reports an operation the underlying structure cannot
	// answer (e.g. path queries on an Euler-tour tree).
	ErrUnsupported = errors.New("ufotree: unsupported operation")
	// ErrClosed reports a submission to a Batcher after Close.
	ErrClosed = errors.New("ufotree: batcher closed")
	// ErrEngine reports an engine panic recovered by the flusher — the
	// safety net admission exists to make unreachable.
	ErrEngine = errors.New("ufotree: engine failure")
)

// Key returns the orientation-free key of edge (u,v): the smaller endpoint
// in the high 32 bits, the larger in the low 32. Vertex ids live in the
// engines' int32 vertex space, so the packing is exact, and (u,v) and
// (v,u) get the same key.
func Key(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Op is the kind of a batch. It names the batch in error messages and
// selects the presence rule: inserts (Link, Add) need every edge absent,
// deletes (Cut, Delete) need every edge present.
type Op uint8

// Batch kinds: Link and Cut for forests, Add and Delete for graphs.
const (
	Link Op = iota
	Cut
	Add
	Delete
)

var opNames = [...]string{"link", "cut", "add", "delete"}

// String returns the name error messages use for the batch kind.
func (o Op) String() string { return opNames[o] }

func (o Op) inserts() bool { return o == Link || o == Add }

// rule is the check rule an edge broke, in the order the rules apply.
type rule uint8

const (
	ruleRange rule = iota
	ruleSelfLoop
	ruleRepeat
	rulePresence
)

// violation is the error the check returns. It is formatted only when
// printed, so a rejection costs one small allocation.
type violation struct {
	rule rule
	op   Op
	u, v int
	n    int
}

func (e *violation) Unwrap() error {
	switch {
	case e.rule == ruleRange:
		return ErrVertexRange
	case e.rule == ruleSelfLoop:
		return ErrSelfLoop
	case e.op.inserts():
		return ErrDuplicateEdge
	default:
		return ErrAbsentCut
	}
}

func (e *violation) Error() string {
	switch e.rule {
	case ruleRange:
		return fmt.Sprintf("%v (%d,%d) in batch %v, n = %d", e.Unwrap(), e.u, e.v, e.op, e.n)
	case ruleRepeat:
		return fmt.Sprintf("%v (%d,%d) repeated in batch %v", e.Unwrap(), e.u, e.v, e.op)
	default:
		return fmt.Sprintf("%v (%d,%d) in batch %v", e.Unwrap(), e.u, e.v, e.op)
	}
}

// Repeated reports whether err, as returned by Check.Edge, is the verdict
// on an edge that appeared earlier in the same batch. The serve layer
// defers such an operation to its next admission round instead of
// rejecting it.
func Repeated(err error) bool {
	e, ok := err.(*violation)
	return ok && e.rule == ruleRepeat
}

// Check is the check's reusable state: the keys of the batch's edges seen
// so far. The zero value is ready to use. A structure keeps one Check and
// reuses it batch after batch, so steady-state batches do not allocate.
type Check struct {
	seen map[uint64]struct{}
}

// Batch checks a k-edge batch of kind op over vertices [0, n) and returns
// its first violation, or nil when the batch may be applied. at(i) returns
// the endpoints of the i-th edge; present reports whether an edge is in
// the structure, and is only asked about in-range, non-loop edges. The
// edges of any earlier batch are forgotten first.
func (c *Check) Batch(op Op, n, k int, at func(i int) (u, v int), present func(u, v int) bool) error {
	clear(c.seen)
	for i := 0; i < k; i++ {
		u, v := at(i)
		if err := c.Edge(op, n, u, v, present); err != nil {
			return err
		}
		c.Mark(u, v)
	}
	return nil
}

// Edge applies the rules to (u,v) as the next edge of the current batch,
// against the edges marked so far. It does not mark (u,v): callers that
// decide more than the rules (the serve layer's cycle and deferral logic)
// mark an edge only once it is admitted or deferred.
func (c *Check) Edge(op Op, n, u, v int, present func(u, v int) bool) error {
	var r rule
	switch {
	case u < 0 || u >= n || v < 0 || v >= n:
		r = ruleRange
	case u == v:
		r = ruleSelfLoop
	default:
		if _, hit := c.seen[Key(u, v)]; hit {
			r = ruleRepeat
		} else if present(u, v) == op.inserts() {
			r = rulePresence
		} else {
			return nil
		}
	}
	return &violation{rule: r, op: op, u: u, v: v, n: n}
}

// Mark records (u,v) as an edge of the current batch, so a later
// occurrence in either orientation is a repeat.
func (c *Check) Mark(u, v int) {
	if c.seen == nil {
		c.seen = make(map[uint64]struct{})
	}
	c.seen[Key(u, v)] = struct{}{}
}
