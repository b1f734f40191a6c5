package serve

import (
	"errors"
	"testing"

	"repro/internal/refforest"
)

// refState adapts the test oracle to State (no ComponentIDer, so these
// tests exercise the Connected-probe interning path; the facade tests
// cover the component-id fast path through the UFO adapter).
type refState struct{ *refforest.Forest }

// path builds the oracle path 0-1-...-(k-1) over n vertices.
func path(n, k int) refState {
	f := refforest.New(n)
	for i := 0; i+1 < k; i++ {
		f.Link(i, i+1, int64(i+1))
	}
	return refState{f}
}

func TestValidateLinksTaxonomy(t *testing.T) {
	s := path(10, 3) // edges (0,1), (1,2)
	cases := []struct {
		name  string
		links []Edge
		want  error
	}{
		{"valid", []Edge{{U: 3, V: 4}, {U: 4, V: 5}, {U: 0, V: 3}}, nil},
		{"self loop", []Edge{{U: 4, V: 4}}, ErrSelfLoop},
		{"out of range", []Edge{{U: 3, V: 10}}, ErrVertexRange},
		{"negative vertex", []Edge{{U: -1, V: 3}}, ErrVertexRange},
		{"already present", []Edge{{U: 1, V: 0}}, ErrDuplicateEdge},
		{"repeat in batch", []Edge{{U: 3, V: 4}, {U: 4, V: 3}}, ErrDuplicateEdge},
		{"cycle against live", []Edge{{U: 0, V: 2}}, ErrWouldCycle},
		{"cycle within batch", []Edge{{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3}}, ErrWouldCycle},
		{"cycle mixed", []Edge{{U: 3, V: 0}, {U: 3, V: 2}}, ErrWouldCycle},
	}
	for _, c := range cases {
		err := ValidateLinks(s, c.links)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

func TestValidateCutsTaxonomy(t *testing.T) {
	s := path(10, 3)
	cases := []struct {
		name string
		cuts []Edge
		want error
	}{
		{"valid", []Edge{{U: 1, V: 0}, {U: 1, V: 2}}, nil},
		{"self loop", []Edge{{U: 2, V: 2}}, ErrSelfLoop},
		{"out of range", []Edge{{U: 0, V: 99}}, ErrVertexRange},
		{"absent", []Edge{{U: 0, V: 2}}, ErrAbsentCut},
		{"repeat in batch", []Edge{{U: 0, V: 1}, {U: 1, V: 0}}, ErrAbsentCut},
	}
	for _, c := range cases {
		err := ValidateCuts(s, c.cuts)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// TestAdmissionRoundClassification drives one admission round directly and
// checks the admit / reject / defer decisions that make window conflicts
// safe: same-edge operations defer, links into components with a pending
// cut defer, and links must not be judged against state a deferred
// operation may still change.
func TestAdmissionRoundClassification(t *testing.T) {
	s := path(12, 4) // path 0-1-2-3; vertices 4.. isolated
	ad := newAdmission(s, nil)

	expect := func(name string, kind opKind, u, v int, wantV verdict, wantErr error) {
		t.Helper()
		vd, err := ad.check(kind, u, v)
		if vd != wantV || !errors.Is(err, wantErr) {
			t.Fatalf("%s: got (%v, %v), want (%v, %v)", name, vd, err, wantV, wantErr)
		}
	}

	// A valid cut admits and blocks its component.
	expect("cut (1,2)", opCut, 1, 2, vAdmit, nil)
	// Same edge again this round: defer, not ErrAbsentCut — the earlier
	// cut has not committed yet.
	expect("re-cut (1,2)", opCut, 1, 2, vDefer, nil)
	// A link into the cut's component cannot be decided this round.
	expect("link into cut comp", opLink, 0, 4, vDefer, nil)
	// A cut elsewhere in the same component is still decidable: validity
	// is HasEdge alone.
	expect("cut (2,3)", opCut, 2, 3, vAdmit, nil)
	// Links between untouched components admit and union.
	expect("link (5,6)", opLink, 5, 6, vAdmit, nil)
	expect("link (6,7)", opLink, 6, 7, vAdmit, nil)
	// A cycle closed purely by this round's links is rejected.
	expect("cycle in round", opLink, 7, 5, vReject, ErrWouldCycle)
	// A duplicate of an admitted link defers (it serializes after the
	// first, which will make it ErrDuplicateEdge next round).
	expect("dup of admitted link", opLink, 5, 6, vDefer, nil)
	// The deferred link tainted components 5-6-7: a later link touching
	// them defers rather than being judged against unstable state.
	expect("link into tainted comp", opLink, 8, 7, vDefer, nil)
	// Invalid operations are rejected outright regardless of round state.
	expect("self loop", opLink, 9, 9, vReject, ErrSelfLoop)
	expect("range", opCut, 0, 12, vReject, ErrVertexRange)
	expect("absent cut", opCut, 8, 9, vReject, ErrAbsentCut)
	expect("dup against live", opLink, 0, 1, vReject, ErrDuplicateEdge)
}
