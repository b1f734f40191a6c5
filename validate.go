package ufotree

import (
	"repro/internal/admit"
	"repro/internal/serve"
)

// The typed errors of the batch, validation and Batcher APIs. Each reports
// one violation class; returned errors (and the values BatchForest panics
// with) wrap these with the offending edge or vertex, so match with
// errors.Is. The canonical values live in internal/admit, the one
// pre-mutation check every batch entry point runs — re-exported here (and
// by internal/serve) so every layer agrees on identity.
var (
	// ErrSelfLoop: a link or cut whose endpoints coincide.
	ErrSelfLoop = admit.ErrSelfLoop
	// ErrDuplicateEdge: a link of an already-present edge, or an edge
	// repeated inside one batch in either orientation.
	ErrDuplicateEdge = admit.ErrDuplicateEdge
	// ErrAbsentCut: a cut of an absent edge (or one already cut earlier in
	// the same batch).
	ErrAbsentCut = admit.ErrAbsentCut
	// ErrWouldCycle: a link whose endpoints are already connected — the
	// one violation BatchLink does not pre-validate (it would corrupt a
	// BatchForest, not panic), so validate before batching untrusted input.
	ErrWouldCycle = admit.ErrWouldCycle
	// ErrVertexRange: an endpoint outside [0, N()).
	ErrVertexRange = admit.ErrVertexRange
	// ErrUnsupported: an operation the underlying structure cannot answer
	// (e.g. path queries through a Batcher over an Euler-tour tree).
	ErrUnsupported = admit.ErrUnsupported
	// ErrClosed: a submission to a Batcher after Close.
	ErrClosed = admit.ErrClosed
	// ErrEngine: an engine panic recovered by a Batcher's flusher instead
	// of reaching the submitter.
	ErrEngine = admit.ErrEngine
)

// ComponentIDer is implemented by forests that can name the component of a
// vertex with an identifier that is stable between updates and never
// reused (the UFO adapter: the root cluster's uid, in O(min{log n, D})).
// ValidateLinks and Batcher admission use it as a fast path for cycle
// detection; structures without it fall back to Connected probes.
type ComponentIDer interface {
	// ComponentID returns the component identifier of u, valid until the
	// next structural update.
	ComponentID(u int) uint64
}

// ValidateLinks reports, as a typed error, the first reason
// f.BatchLink(edges) would violate the pre-mutation panic contract — an
// endpoint out of range (ErrVertexRange), a self loop (ErrSelfLoop), an
// edge repeated inside the batch in either orientation or already present
// (ErrDuplicateEdge) — or would close a cycle (ErrWouldCycle, the one
// violation BatchLink cannot check for itself). A nil return means the
// batch is safe to hand to a BatchForest: it is how a server front-end
// rejects bad input with an error while the direct batch calls keep their
// panic contract.
//
// The cycle check validates the batch as a whole: a cycle formed only by
// edges inside the batch is reported on the edge that closes it.
func ValidateLinks(f Forest, edges []Edge) error {
	return serve.ValidateLinks(stateOf(f), convServeEdges(edges))
}

// ValidateCuts reports, as a typed error, the first reason
// f.BatchCut(edges) would violate the pre-mutation panic contract: an
// endpoint out of range (ErrVertexRange), a self loop (ErrSelfLoop), or an
// edge repeated inside the batch or absent (ErrAbsentCut).
func ValidateCuts(f Forest, edges []Edge) error {
	return serve.ValidateCuts(stateOf(f), convServeEdges(edges))
}

// serveState adapts a facade Forest to the serve layer's read-only State,
// forwarding the ComponentIDer fast path when the forest has one.
type serveState struct{ f Forest }

func (s serveState) N() int                  { return s.f.N() }
func (s serveState) HasEdge(u, v int) bool   { return s.f.HasEdge(u, v) }
func (s serveState) Connected(u, v int) bool { return s.f.Connected(u, v) }

// ComponentID implements serve.ComponentIDer; only forests that are
// themselves ComponentIDers are wrapped by stateOf with this fast path.
type serveStateComp struct{ serveState }

func (s serveStateComp) ComponentID(u int) uint64 { return s.f.(ComponentIDer).ComponentID(u) }

func stateOf(f Forest) serve.State {
	if _, ok := f.(ComponentIDer); ok {
		return serveStateComp{serveState{f}}
	}
	return serveState{f}
}

func convServeEdges(edges []Edge) []serve.Edge {
	out := make([]serve.Edge, len(edges))
	for i, e := range edges {
		out[i] = serve.Edge{U: e.U, V: e.V, W: e.W}
	}
	return out
}
