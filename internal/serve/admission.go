package serve

import (
	"fmt"

	"repro/internal/admit"
)

// Typed errors of the admission / validation API: the values of
// internal/admit, the shared pre-mutation check (documented there),
// re-exported so the serve layer and its callers agree on identity.
// Wrapped errors carry the offending edge; match with errors.Is.
// ErrSelfLoop, ErrDuplicateEdge, ErrAbsentCut and ErrVertexRange are
// exactly what the engines' pre-mutation check reports, so a caller
// holding a batch can swap a panic-on-violation BatchLink for
// ValidateLinks + typed errors without changing what is considered
// invalid.
var (
	ErrSelfLoop      = admit.ErrSelfLoop
	ErrDuplicateEdge = admit.ErrDuplicateEdge
	ErrAbsentCut     = admit.ErrAbsentCut
	ErrWouldCycle    = admit.ErrWouldCycle
	ErrVertexRange   = admit.ErrVertexRange
	ErrUnsupported   = admit.ErrUnsupported
	ErrClosed        = admit.ErrClosed
	ErrEngine        = admit.ErrEngine
)

// ValidateLinks reports, as a typed error, the first reason BatchLink(links)
// would violate the pre-mutation contract against s — the shared check's
// endpoint out of range, self loop, edge repeated in the batch in either
// orientation, edge already present — or would close a cycle
// (ErrWouldCycle, the violation BatchLink does not check). A nil return
// means the batch is safe to hand to a BatchForest. If s implements
// ComponentIDer the cycle check runs on component ids; otherwise
// components are interned with Connected probes.
func ValidateLinks(s State, links []Edge) error {
	ad := newAdmission(s, compIDOf(s))
	n := s.N()
	for _, e := range links {
		if err := ad.chk.Edge(admit.Link, n, e.U, e.V, s.HasEdge); err != nil {
			return err
		}
		// Nothing blocks a component here, so checkLink admits or rejects.
		if _, err := ad.checkLink(e.U, e.V); err != nil {
			return err
		}
		ad.chk.Mark(e.U, e.V)
	}
	return nil
}

// ValidateCuts reports, as a typed error, the first reason BatchCut(cuts)
// would violate the pre-mutation contract against s: the shared check's
// endpoint out of range, self loop (no such edge can exist), edge
// repeated in the batch in either orientation (absent by the time the
// repeat applies, hence ErrAbsentCut), or edge not present.
func ValidateCuts(s State, cuts []Edge) error {
	var chk admit.Check
	at := func(i int) (int, int) { return cuts[i].U, cuts[i].V }
	return chk.Batch(admit.Cut, s.N(), len(cuts), at, s.HasEdge)
}

func compIDOf(s State) func(int) uint64 {
	if c, ok := s.(ComponentIDer); ok {
		return c.ComponentID
	}
	return nil
}

type verdict uint8

const (
	vAdmit verdict = iota
	vReject
	vDefer
)

// admission is the per-round conflict tracker. It overlays a union-find on
// the live components touched so far: links union the components they
// admit, cuts and deferrals block theirs. An operation is
//
//   - rejected when it is provably invalid at its serialization point
//     (validated against the live structure plus this round's admitted
//     operations — sound because anything whose validity the round could
//     still change is deferred instead, see below);
//   - deferred when its edge was already touched (admitted) or deferred
//     this round, or — for links — when one of its components carries a
//     pending cut or a deferred operation, so its validity depends on
//     operations that have not committed yet.
//
// Cuts never defer on component state: their validity is HasEdge alone,
// which only same-edge operations (caught by the key sets) can change.
// Links defer on blocked components because a pending cut could split the
// component (making ErrWouldCycle wrong) and a deferred link could join
// two components (making an admit wrong); both mark every component they
// touch.
type admission struct {
	s      State
	compID func(int) uint64 // nil: intern via Connected probes

	// chk is the shared pre-mutation check; its seen-set holds the edges
	// admitted or deferred this round, so a repeat of one defers.
	chk admit.Check

	node    map[uint64]int // live component id -> dsu index (fast path)
	reps    []int          // representative vertex per dsu index (probe path)
	parent  []int32
	blocked []bool
}

func newAdmission(s State, compID func(int) uint64) *admission {
	return &admission{s: s, compID: compID, node: make(map[uint64]int)}
}

// comp interns the live component of u as a dsu index. With a component-id
// fast path this is one id lookup; without it, u is probed against one
// representative per already-interned component.
func (ad *admission) comp(u int) int {
	if ad.compID != nil {
		id := ad.compID(u)
		if x, ok := ad.node[id]; ok {
			return x
		}
		x := ad.push()
		ad.node[id] = x
		return x
	}
	for x, rep := range ad.reps {
		if ad.s.Connected(u, rep) {
			return x
		}
	}
	x := ad.push()
	ad.reps = append(ad.reps, u)
	return x
}

func (ad *admission) push() int {
	x := len(ad.parent)
	ad.parent = append(ad.parent, int32(x))
	ad.blocked = append(ad.blocked, false)
	return x
}

func (ad *admission) find(x int) int {
	for int(ad.parent[x]) != x {
		ad.parent[x] = ad.parent[int(ad.parent[x])]
		x = int(ad.parent[x])
	}
	return x
}

func (ad *admission) union(a, b int) int {
	ra, rb := ad.find(a), ad.find(b)
	if ra == rb {
		return ra
	}
	ad.parent[rb] = int32(ra)
	ad.blocked[ra] = ad.blocked[ra] || ad.blocked[rb]
	return ra
}

func (ad *admission) block(x int) { ad.blocked[ad.find(x)] = true }

// check classifies one mutation; on vReject the error is the typed reason.
// The shared check rejects what is invalid against the live structure, and
// its repeat verdict — the edge was admitted or deferred earlier this
// round — defers instead: the earlier operation has not committed yet.
func (ad *admission) check(kind opKind, u, v int) (verdict, error) {
	op := admit.Link
	if kind == opCut {
		op = admit.Cut
	}
	vd := vDefer
	err := ad.chk.Edge(op, ad.s.N(), u, v, ad.s.HasEdge)
	switch {
	case admit.Repeated(err):
	case err != nil:
		return vReject, err
	case kind == opCut:
		// A valid cut admits, and blocks its component so no later link
		// of this round reasons about connectivity the cut is about to
		// change.
		ad.block(ad.comp(u))
		vd = vAdmit
	default:
		if vd, err = ad.checkLink(u, v); vd == vReject {
			return vd, err
		}
	}
	ad.chk.Mark(u, v)
	if vd == vDefer {
		// Mark both components: later links must not decide against a
		// state this deferred operation may still change.
		ad.block(ad.comp(u))
		ad.block(ad.comp(v))
	}
	return vd, nil
}

// checkLink decides a link that passed the shared check: it defers when
// either component is blocked and rejects one that would close a cycle.
func (ad *admission) checkLink(u, v int) (verdict, error) {
	cu, cv := ad.comp(u), ad.comp(v)
	ru, rv := ad.find(cu), ad.find(cv)
	if ad.blocked[ru] || ad.blocked[rv] {
		return vDefer, nil
	}
	if ru == rv {
		return vReject, fmt.Errorf("%w: edge (%d,%d)", ErrWouldCycle, u, v)
	}
	ad.union(ru, rv)
	return vAdmit, nil
}
