package conn

import (
	"fmt"

	"repro/internal/admit"
)

// Validate checks the multi-level structural invariants exhaustively and
// returns the first violation found (nil when the structure is sound). It
// is O(m·L + n·L) — a test and debugging aid, not a production call.
//
// Checked invariants:
//
//   - Every materialized forest passes the forest layer's own Validate.
//   - Every recorded edge is consistent with the incidence buckets: a
//     tree edge at level ℓ is present in the forests of levels 0..ℓ and
//     in no finer forest (which is exactly the level-i ⊆ level-(i-1)
//     containment, edge by edge), and sits in both endpoints' te[ℓ]
//     buckets; a non-tree edge sits in both nt[ℓ] buckets, in no forest,
//     and its endpoints are connected in the level-ℓ forest (the
//     replacement-search reachability invariant).
//   - Bucket entries and counters agree with the central record (no
//     orphans in either direction).
//   - The HDT size bound: a component of the level-i forest holds at
//     most max(1, n>>i) vertices.
func (g *BatchDynamicConnectivity) Validate() error {
	for i := range g.lv {
		if g.lv[i].f == nil {
			continue
		}
		if err := g.lv[i].f.Validate(); err != nil {
			return fmt.Errorf("conn: level %d forest: %w", i, err)
		}
	}
	teSeen, ntSeen := 0, 0
	for k, r := range g.rec {
		u, v := int(k>>32), int(k&0xffffffff)
		lev := int(r.level)
		if lev < 0 || lev >= len(g.lv) {
			return fmt.Errorf("conn: edge (%d,%d) at out-of-range level %d", u, v, lev)
		}
		if g.lv[lev].f == nil {
			return fmt.Errorf("conn: edge (%d,%d) at unmaterialized level %d", u, v, lev)
		}
		if r.tree {
			teSeen++
			if !bucketHas(g.lv[lev].te, u, v) {
				return fmt.Errorf("conn: tree edge (%d,%d) missing from te bucket at level %d", u, v, lev)
			}
			for j := range g.lv {
				if g.lv[j].f == nil {
					if j <= lev {
						return fmt.Errorf("conn: tree edge (%d,%d) level %d but forest %d unmaterialized", u, v, lev, j)
					}
					continue
				}
				if has := g.lv[j].f.HasEdge(u, v); has != (j <= lev) {
					return fmt.Errorf("conn: tree edge (%d,%d) level %d: forest %d membership %v", u, v, lev, j, has)
				}
			}
		} else {
			ntSeen++
			if !bucketHas(g.lv[lev].nt, u, v) {
				return fmt.Errorf("conn: non-tree edge (%d,%d) missing from nt bucket at level %d", u, v, lev)
			}
			if !g.lv[lev].f.Connected(u, v) {
				return fmt.Errorf("conn: non-tree edge (%d,%d) endpoints not connected at its level %d", u, v, lev)
			}
			for j := range g.lv {
				if g.lv[j].f != nil && g.lv[j].f.HasEdge(u, v) {
					return fmt.Errorf("conn: non-tree edge (%d,%d) present in forest %d", u, v, j)
				}
			}
		}
	}
	if teSeen != g.f0().EdgeCount() {
		return fmt.Errorf("conn: %d tree records vs %d level-0 forest edges", teSeen, g.f0().EdgeCount())
	}
	if ntSeen != g.ntCount {
		return fmt.Errorf("conn: %d non-tree records vs ntCount %d", ntSeen, g.ntCount)
	}
	for i := range g.lv {
		if g.lv[i].f == nil {
			continue
		}
		if err := g.checkBucketsRecorded(i); err != nil {
			return err
		}
		if i > 0 {
			if err := g.checkSizeBound(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// bucketHas reports whether (u,v) is recorded in both endpoints' buckets.
func bucketHas(b []map[int]struct{}, u, v int) bool {
	if _, ok := b[u][v]; !ok {
		return false
	}
	_, ok := b[v][u]
	return ok
}

// checkBucketsRecorded verifies every te/nt bucket entry at level i points
// back to a central record with matching level and kind.
func (g *BatchDynamicConnectivity) checkBucketsRecorded(i int) error {
	for u, m := range g.lv[i].te {
		for v := range m {
			r, ok := g.rec[admit.Key(u, v)]
			if !ok || !r.tree || int(r.level) != i {
				return fmt.Errorf("conn: orphan te bucket entry (%d,%d) at level %d", u, v, i)
			}
		}
	}
	for u, m := range g.lv[i].nt {
		for v := range m {
			r, ok := g.rec[admit.Key(u, v)]
			if !ok || r.tree || int(r.level) != i {
				return fmt.Errorf("conn: orphan nt bucket entry (%d,%d) at level %d", u, v, i)
			}
		}
	}
	return nil
}

// checkSizeBound verifies the HDT invariant that a level-i component holds
// at most max(1, n>>i) vertices.
func (g *BatchDynamicConnectivity) checkSizeBound(i int) error {
	bound := g.n >> uint(i)
	if bound < 1 {
		bound = 1
	}
	seen := make(map[uint64]struct{})
	f := g.lv[i].f
	for v := 0; v < g.n; v++ {
		id := f.ComponentID(v)
		if _, done := seen[id]; done {
			continue
		}
		seen[id] = struct{}{}
		if s := f.ComponentSize(v); s > bound {
			return fmt.Errorf("conn: level %d component of %d has %d vertices > bound %d", i, v, s, bound)
		}
	}
	return nil
}
