package ufo

import (
	"fmt"

	"repro/internal/admit"
)

// Validate exhaustively checks the structural invariants of the UFO tree.
// It runs in O(n · height) time and is intended for tests, where it is
// called after every update of a differential run.
//
// Checked invariants:
//   - parent/child symmetry and childIdx consistency; strictly increasing
//     levels along parent edges; no dead clusters reachable;
//   - arena integrity: every slot is either reachable from a leaf or on the
//     free list, freed slots are fully zeroed, and no live cluster holds a
//     handle to a freed slot (validateArena in arena.go);
//   - adjacency symmetry: every entry has a mirror with swapped endpoints,
//     equal keys/weights, at the same level; entry endpoints actually lie
//     inside the owning clusters;
//   - adjacency shape: an overflow table exists only over four full inline
//     slots and is never empty (the query walk reads inline entries
//     directly on that premise);
//   - quotient consistency: the level-(l+1) edges are exactly the images of
//     level-l edges whose endpoints have distinct parents (no stale edges);
//   - merge validity: children of each cluster are connected via level
//     edges; superunary clusters (fanout ≥ 3) have a recorded center
//     adjacent to every other child; clusters of degree ≥ 3 have a single
//     boundary vertex;
//   - aggregate consistency: vcnt, subSum, pathSum, pathMax match a direct
//     recomputation;
//   - maximality: no two adjacent unmerged clusters that could merge; every
//     degree-1 cluster adjacent to a high-degree cluster shares its parent
//     (the strong unbounded-fanout maximality invariant);
//   - height: every root cluster sits at level ≤ ceil(D/2)+1 and
//     ≤ log_{6/5} n + 2 for its component.
func (f *Forest) Validate() error {
	a := &f.a
	// Gather all live clusters level by level by walking up from leaves.
	byLevel := map[int32]map[cref]bool{}
	reachable := map[cref]bool{}
	addAll := func(c cref) {
		for ; c != nilRef; c = a.at(c).parent {
			if reachable[c] {
				return
			}
			reachable[c] = true
			l := a.at(c).level
			m := byLevel[l]
			if m == nil {
				m = map[cref]bool{}
				byLevel[l] = m
			}
			m[c] = true
		}
	}
	for v := 0; v < f.n; v++ {
		addAll(f.leaf(v))
	}

	// Every slot is either reachable above or sits zeroed on the free list.
	if err := a.validateArena(reachable); err != nil {
		return err
	}

	// Map each cluster to its contained vertices for membership checks.
	contents := map[cref]map[int32]bool{}
	for v := 0; v < f.n; v++ {
		for c := f.leaf(v); c != nilRef; c = a.at(c).parent {
			m := contents[c]
			if m == nil {
				m = map[int32]bool{}
				contents[c] = m
			}
			m[int32(v)] = true
		}
	}

	var maxLevel int32
	for l := range byLevel {
		if l > maxLevel {
			maxLevel = l
		}
	}

	for l := int32(0); l <= maxLevel; l++ {
		for c := range byLevel[l] {
			if err := f.validateCluster(c, contents); err != nil {
				return err
			}
		}
		// Quotient consistency between level l and l+1.
		if err := f.validateQuotient(byLevel[l], l); err != nil {
			return err
		}
	}
	if err := f.validateMaximality(byLevel, maxLevel); err != nil {
		return err
	}
	return nil
}

func (f *Forest) validateCluster(c cref, contents map[cref]map[int32]bool) error {
	a := &f.a
	hc := a.at(c)
	if hc.dead() {
		return fmt.Errorf("level %d: dead cluster reachable", hc.level)
	}
	if hc.has(flagInRoots | flagInDel | flagTouched | flagMaxDirty) {
		return fmt.Errorf("level %d: cluster with leftover engine flags %b", hc.level, hc.flags.Load())
	}
	if f.trackMax {
		cd := a.coldAt(c)
		if len(cd.rtOrphans) != 0 || len(cd.rtNew) != 0 || len(cd.rtStale) != 0 {
			return fmt.Errorf("level %d: cluster with unapplied rank-tree repair buffers (%d orphans, %d new, %d stale)",
				hc.level, len(cd.rtOrphans), len(cd.rtNew), len(cd.rtStale))
		}
	}
	if hc.prop != nilRef {
		return fmt.Errorf("level %d: cluster with leftover matching proposal", hc.level)
	}
	if ov := hc.adj.ov; ov != nil && (hc.adj.n != int32(len(hc.adj.arr)) || ov.n == 0) {
		return fmt.Errorf("level %d: overflow table of %d entries beside %d inline entries",
			hc.level, ov.n, hc.adj.n)
	}
	if hc.parent != nilRef && a.at(hc.parent).level != hc.level+1 {
		return fmt.Errorf("level %d: parent at level %d", hc.level, a.at(hc.parent).level)
	}
	if hc.parent != nilRef {
		hp := a.at(hc.parent)
		if int(hc.childIdx) >= len(hp.children) || hp.children[hc.childIdx] != c {
			return fmt.Errorf("level %d: childIdx inconsistent", hc.level)
		}
	}
	// Children.
	if hc.level == 0 {
		if len(hc.children) != 0 || hc.leafV < 0 {
			return fmt.Errorf("leaf cluster malformed")
		}
	} else if len(hc.children) == 0 {
		return fmt.Errorf("level %d: internal cluster with no children", hc.level)
	}
	var vcnt, subSum int64
	if hc.level == 0 {
		vcnt = 1
		subSum = hc.subSum // leaf value is its own ground truth
	}
	for _, ch := range hc.children {
		hch := a.at(ch)
		if hch.parent != c {
			return fmt.Errorf("level %d: child does not point back", hc.level)
		}
		if hch.level != hc.level-1 {
			return fmt.Errorf("level %d: child at level %d", hc.level, hch.level)
		}
		vcnt += hch.vcnt
		subSum += hch.subSum
	}
	if hc.level > 0 {
		if hc.vcnt != vcnt {
			return fmt.Errorf("level %d: vcnt %d != sum of children %d", hc.level, hc.vcnt, vcnt)
		}
		if hc.subSum != subSum {
			return fmt.Errorf("level %d: subSum %d != sum of children %d", hc.level, hc.subSum, subSum)
		}
	}
	if f.trackMax {
		wantMax := int64(negInf)
		if hc.level == 0 {
			wantMax = hc.subSum
		} else {
			for _, ch := range hc.children {
				if a.at(ch).subMax > wantMax {
					wantMax = a.at(ch).subMax
				}
			}
		}
		if hc.subMax != wantMax {
			return fmt.Errorf("level %d: subMax %d != recomputed %d", hc.level, hc.subMax, wantMax)
		}
		cd := a.coldAt(c)
		if hc.level > 0 && (cd.childTree == nil || cd.childTree.Len() != len(hc.children)) {
			return fmt.Errorf("level %d: child rank tree out of sync", hc.level)
		}
	}
	// Children connectivity and merge shape.
	if hc.level > 0 && len(hc.children) > 1 {
		if err := a.validateMergeShape(c); err != nil {
			return err
		}
	}
	if f.mode == ModeTopology {
		if len(hc.children) > 2 {
			return fmt.Errorf("level %d: topology cluster with fanout %d", hc.level, len(hc.children))
		}
		if hc.adj.degree() > 3 {
			return fmt.Errorf("level %d: topology cluster with degree %d", hc.level, hc.adj.degree())
		}
		if hc.center != nilRef {
			return fmt.Errorf("level %d: topology cluster with a superunary center", hc.level)
		}
	}
	if f.mode == ModeRC {
		if len(hc.children) > 4 {
			return fmt.Errorf("level %d: RC cluster with fanout %d", hc.level, len(hc.children))
		}
		if hc.adj.degree() > 3 {
			return fmt.Errorf("level %d: RC cluster with degree %d", hc.level, hc.adj.degree())
		}
	}
	if len(hc.children) >= 3 && hc.center == nilRef {
		return fmt.Errorf("level %d: fanout %d without a center", hc.level, len(hc.children))
	}
	if hc.center != nilRef && a.at(hc.center).parent != c {
		return fmt.Errorf("level %d: center is not a child", hc.level)
	}
	// Adjacency.
	own := contents[c]
	seenKeys := map[uint64]bool{}
	var firstBoundary int32 = -1
	multiBoundary := false
	var adjErr error
	hc.adj.forEach(func(er EdgeRef) bool {
		if seenKeys[er.key] {
			adjErr = fmt.Errorf("level %d: duplicate adjacency key", hc.level)
			return false
		}
		seenKeys[er.key] = true
		if er.to == c {
			adjErr = fmt.Errorf("level %d: self edge", hc.level)
			return false
		}
		ht := a.at(er.to)
		if ht.dead() {
			adjErr = fmt.Errorf("level %d: edge to dead cluster", hc.level)
			return false
		}
		if ht.level != hc.level {
			adjErr = fmt.Errorf("level %d: edge to level %d", hc.level, ht.level)
			return false
		}
		if er.key != admit.Key(int(er.myV), int(er.otherV)) {
			adjErr = fmt.Errorf("level %d: edge key does not match endpoints", hc.level)
			return false
		}
		if !own[er.myV] {
			adjErr = fmt.Errorf("level %d: edge endpoint %d not inside cluster", hc.level, er.myV)
			return false
		}
		if !contents[er.to][er.otherV] {
			adjErr = fmt.Errorf("level %d: edge far endpoint %d not inside neighbor", hc.level, er.otherV)
			return false
		}
		mirror, ok := ht.adj.get(er.key)
		if !ok || mirror.to != c || mirror.myV != er.otherV || mirror.otherV != er.myV || mirror.w != er.w {
			adjErr = fmt.Errorf("level %d: missing or inconsistent mirror entry", hc.level)
			return false
		}
		if firstBoundary == -1 {
			firstBoundary = er.myV
		} else if er.myV != firstBoundary {
			multiBoundary = true
		}
		return true
	})
	if adjErr != nil {
		return adjErr
	}
	if hc.adj.degree() >= 3 && multiBoundary {
		return fmt.Errorf("level %d: degree-%d cluster with multiple boundary vertices", hc.level, hc.adj.degree())
	}
	// Path aggregates.
	if err := f.validatePathAgg(c); err != nil {
		return err
	}
	return nil
}

// validateMergeShape checks that c's children form a connected subgraph of
// the level below, and that superunary merges are stars around the center.
func (a *arena) validateMergeShape(c cref) error {
	hc := a.at(c)
	kids := map[cref]bool{}
	for _, ch := range hc.children {
		kids[ch] = true
	}
	// BFS over children using level edges restricted to siblings.
	visited := map[cref]bool{hc.children[0]: true}
	queue := []cref{hc.children[0]}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		a.at(x).adj.forEach(func(er EdgeRef) bool {
			if kids[er.to] && !visited[er.to] {
				visited[er.to] = true
				queue = append(queue, er.to)
			}
			return true
		})
	}
	if len(visited) != len(hc.children) {
		return fmt.Errorf("level %d: children of a cluster are disconnected (%d of %d reachable)",
			hc.level, len(visited), len(hc.children))
	}
	if hc.center != nilRef {
		for _, ch := range hc.children {
			if ch == hc.center {
				continue
			}
			if _, ok := a.edgeBetween(ch, hc.center); !ok {
				return fmt.Errorf("level %d: superunary child not adjacent to center", hc.level)
			}
		}
	}
	return nil
}

// validatePathAgg recomputes c's cluster-path aggregates by walking the
// actual vertex path between its boundary vertices in the input forest.
func (f *Forest) validatePathAgg(c cref) error {
	hc := f.a.at(c)
	b, n := hc.boundaries()
	wantSum, wantMax, wantCnt := int64(0), int64(negInf), int32(0)
	wantMaxKey := uint64(0)
	if n == 2 {
		// Walk the path b[0]..b[1] in the input forest (edges at level 0).
		sum, mx, mxKey, cnt, ok := f.refPath(b[0], b[1])
		if !ok {
			return fmt.Errorf("level %d: boundary vertices disconnected", hc.level)
		}
		wantSum, wantMax, wantMaxKey, wantCnt = sum, mx, mxKey, cnt
	}
	if hc.pathSum != wantSum || hc.pathMax != wantMax || hc.pathCnt != wantCnt ||
		hc.pathMaxKey != wantMaxKey {
		return fmt.Errorf("level %d: pathAgg (%d,%d,%#x,%d) != recomputed (%d,%d,%#x,%d) [slot=%d uid=%d deg=%d nb=%d bounds=%v nchild=%d children=%v flags=%#x]",
			hc.level, hc.pathSum, hc.pathMax, hc.pathMaxKey, hc.pathCnt,
			wantSum, wantMax, wantMaxKey, wantCnt,
			c, hc.uid, hc.adj.degree(), n, b, len(hc.children), hc.children, hc.flags.Load())
	}
	return nil
}

// refPath computes the path aggregate between two vertices by BFS over the
// level-0 adjacency (test oracle inside the validator).
func (f *Forest) refPath(a, b int32) (sum, mx int64, mxKey uint64, cnt int32, ok bool) {
	if a == b {
		return 0, negInf, 0, 0, true
	}
	type st struct {
		v   int32
		sum int64
		mx  int64
		mxK uint64
		cnt int32
	}
	prev := map[int32]bool{a: true}
	queue := []st{{a, 0, negInf, 0, 0}}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		found := st{}
		done := false
		f.a.at(f.leaf(int(x.v))).adj.forEach(func(er EdgeRef) bool {
			y := er.otherV
			if prev[y] {
				return true
			}
			prev[y] = true
			nm, nk := wkMax(x.mx, x.mxK, er.w, er.key)
			ns := st{y, x.sum + er.w, nm, nk, x.cnt + 1}
			if y == b {
				found = ns
				done = true
				return false
			}
			queue = append(queue, ns)
			return true
		})
		if done {
			return found.sum, found.mx, found.mxK, found.cnt, true
		}
	}
	return 0, 0, 0, 0, false
}

// validateQuotient checks that level l+1 edges are exactly the images of
// level-l edges between clusters with distinct parents.
func (f *Forest) validateQuotient(level map[cref]bool, l int32) error {
	a := &f.a
	type img struct {
		p, q cref
	}
	want := map[uint64]img{}
	for c := range level {
		var err error
		p := a.at(c).parent
		a.at(c).adj.forEach(func(er EdgeRef) bool {
			q := a.at(er.to).parent
			if p == nilRef || q == nilRef || p == q {
				return true
			}
			if prev, ok := want[er.key]; ok {
				if !(prev.p == p && prev.q == q) && !(prev.p == q && prev.q == p) {
					err = fmt.Errorf("level %d: edge image inconsistent", l+1)
					return false
				}
				return true
			}
			want[er.key] = img{p, q}
			return true
		})
		if err != nil {
			return err
		}
	}
	// Every expected image must exist; every existing upper edge must be
	// expected.
	found := map[uint64]bool{}
	seen := map[cref]bool{}
	for c := range level {
		p := a.at(c).parent
		if p == nilRef || seen[p] {
			continue
		}
		seen[p] = true
		var err error
		a.at(p).adj.forEach(func(er EdgeRef) bool {
			w, ok := want[er.key]
			if !ok {
				err = fmt.Errorf("level %d: stale edge (key %x) with no level-%d preimage", l+1, er.key, l)
				return false
			}
			if !(w.p == p && w.q == er.to) && !(w.p == er.to && w.q == p) {
				err = fmt.Errorf("level %d: edge connects wrong clusters", l+1)
				return false
			}
			found[er.key] = true
			return true
		})
		if err != nil {
			return err
		}
	}
	for key := range want {
		if !found[key] {
			return fmt.Errorf("level %d: missing edge image for key %x", l+1, key)
		}
	}
	return nil
}

// validateMaximality enforces the contraction maximality invariants.
func (f *Forest) validateMaximality(byLevel map[int32]map[cref]bool, maxLevel int32) error {
	a := &f.a
	for l := int32(0); l <= maxLevel; l++ {
		for c := range byLevel[l] {
			hc := a.at(c)
			if hc.parent == nilRef {
				if hc.adj.degree() != 0 {
					return fmt.Errorf("level %d: root cluster with remaining edges", l)
				}
				continue
			}
			merged := len(a.at(hc.parent).children) > 1
			deg := hc.adj.degree()
			if f.mode == ModeUFO && deg >= 3 {
				// Strong maximality: every degree-1 neighbor must be in
				// the same merge.
				var err error
				hc.adj.forEach(func(er EdgeRef) bool {
					ht := a.at(er.to)
					if ht.adj.degree() == 1 && ht.parent != hc.parent {
						err = fmt.Errorf("level %d: degree-1 neighbor of a high-degree cluster not absorbed", l)
						return false
					}
					return true
				})
				if err != nil {
					return err
				}
				continue
			}
			if merged {
				continue
			}
			// Unmerged cluster: no neighbor may be unmerged and pairable
			// with it under the mode's merge rules.
			var err error
			hc.adj.forEach(func(er EdgeRef) bool {
				hy := a.at(er.to)
				ydeg := hy.adj.degree()
				ymerged := hy.parent != nilRef && len(a.at(hy.parent).children) > 1
				pairable := false
				switch f.mode {
				case ModeUFO, ModeRC:
					pairable = deg <= 2 && ydeg <= 2
					if ydeg >= 3 && deg == 1 {
						// Must have joined the high-degree family.
						err = fmt.Errorf("level %d: unmerged degree-1 cluster adjacent to a high-degree cluster", l)
						return false
					}
				case ModeTopology:
					pairable = (deg <= 2 && ydeg <= 2) || (deg == 1 && ydeg == 3) || (deg == 3 && ydeg == 1)
				}
				if pairable && !ymerged {
					err = fmt.Errorf("level %d: two adjacent unmerged mergeable clusters", l)
					return false
				}
				return true
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
