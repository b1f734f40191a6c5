package ufotree_test

import (
	"errors"
	"fmt"
	"testing"

	"repro"
	"repro/internal/refforest"
)

// batchForestMakers returns the six BatchForest constructors.
func batchForestMakers() []func(n int) ufotree.BatchForest {
	return []func(n int) ufotree.BatchForest{
		ufotree.NewUFO,
		ufotree.NewTopology,
		ufotree.NewRC,
		func(n int) ufotree.BatchForest { return ufotree.NewETTTreap(n, 1) },
		ufotree.NewETTSplay,
		func(n int) ufotree.BatchForest { return ufotree.NewETTSkipList(n, 2) },
	}
}

// admBatch is one link (insert) or cut (delete) batch.
type admBatch struct {
	cut   bool
	edges []ufotree.Edge
}

func (b admBatch) String() string {
	op := "link"
	if b.cut {
		op = "cut"
	}
	s := op
	for _, e := range b.edges {
		s += fmt.Sprintf(" (%d,%d)", e.U, e.V)
	}
	return s
}

func edges(pairs ...[2]int) []ufotree.Edge {
	out := make([]ufotree.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = ufotree.Edge{U: p[0], V: p[1], W: 1}
	}
	return out
}

// contractPath is the forest every contract batch starts from: the path
// 0–1–2–3–4, with vertices 5..7 isolated (n = 8).
var contractPath = admBatch{edges: edges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4})}

// contractBatches are the adversarial batches of the BatchForest
// pre-mutation contract, each with the typed error it must panic with.
var contractBatches = []struct {
	b    admBatch
	want error
}{
	{admBatch{edges: edges([2]int{5, 6}, [2]int{6, 5})}, ufotree.ErrDuplicateEdge},
	{admBatch{edges: edges([2]int{5, 6}, [2]int{5, 6})}, ufotree.ErrDuplicateEdge},
	{admBatch{edges: edges([2]int{5, 6}, [2]int{0, 1})}, ufotree.ErrDuplicateEdge},
	{admBatch{edges: edges([2]int{5, 6}, [2]int{7, 7})}, ufotree.ErrSelfLoop},
	{admBatch{edges: edges([2]int{5, 6}, [2]int{0, 9})}, ufotree.ErrVertexRange},
	{admBatch{cut: true, edges: edges([2]int{0, 1}, [2]int{6, 7})}, ufotree.ErrAbsentCut},
	{admBatch{cut: true, edges: edges([2]int{0, 1}, [2]int{1, 0})}, ufotree.ErrAbsentCut},
}

// applyForest sends b to f and returns what it panicked with, nil when it
// applied.
func applyForest(f ufotree.BatchForest, b admBatch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				err = fmt.Errorf("non-error panic: %v", r)
			}
		}
	}()
	if b.cut {
		f.BatchCut(b.edges)
	} else {
		f.BatchLink(b.edges)
	}
	return nil
}

// view is what the contract says must not change: HasEdge and Connected
// for every vertex pair.
type view interface {
	N() int
	HasEdge(u, v int) bool
	Connected(u, v int) bool
}

func observe(s view) string {
	out := make([]byte, 0, s.N()*s.N())
	for u := 0; u < s.N(); u++ {
		for v := 0; v < s.N(); v++ {
			c := byte('0')
			if s.Connected(u, v) {
				c++
			}
			if s.HasEdge(u, v) {
				c += 2
			}
			out = append(out, c)
		}
	}
	return string(out)
}

// TestBatchForestPreMutationContract sends every contract batch to every
// BatchForest constructor: each must panic with its typed error and leave
// HasEdge and Connected unchanged for every vertex pair.
func TestBatchForestPreMutationContract(t *testing.T) {
	for _, mk := range batchForestMakers() {
		for _, c := range contractBatches {
			f := mk(8)
			if err := applyForest(f, contractPath); err != nil {
				t.Fatalf("%s: path: %v", f.Name(), err)
			}
			before := observe(f)
			err := applyForest(f, c.b)
			if !errors.Is(err, c.want) {
				t.Errorf("%s: %v: got %v, want a panic with errors.Is(%v)", f.Name(), c.b, err, c.want)
			}
			if observe(f) != before {
				t.Errorf("%s: %v: mutated before panicking", f.Name(), c.b)
			}
		}
	}
}

// admModel is the fuzz test's own edge-set model of one family of
// structures: forests (which never hold a cycle) or graphs.
type admModel struct {
	n     int
	edges map[[2]int]bool
}

func norm(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (m *admModel) N() int                { return m.n }
func (m *admModel) HasEdge(u, v int) bool { return m.edges[norm(u, v)] }

// Connected answers from a union-find built over the model's edges.
func (m *admModel) Connected(u, v int) bool {
	p := m.uf()
	return m.find(p, u) == m.find(p, v)
}

func (m *admModel) uf() []int {
	p := make([]int, m.n)
	for i := range p {
		p[i] = i
	}
	for e := range m.edges {
		p[m.find(p, e[0])] = m.find(p, e[1])
	}
	return p
}

func (m *admModel) find(p []int, x int) int {
	for p[x] != x {
		x = p[x]
	}
	return x
}

// predict returns the typed error the batch must be refused with, or nil.
// Rules per edge, first violating edge wins: endpoint out of range, self
// loop, repeat within the batch in either orientation, presence.
func (m *admModel) predict(b admBatch) error {
	seen := map[[2]int]bool{}
	for _, e := range b.edges {
		k := norm(e.U, e.V)
		switch {
		case e.U < 0 || e.U >= m.n || e.V < 0 || e.V >= m.n:
			return ufotree.ErrVertexRange
		case e.U == e.V:
			return ufotree.ErrSelfLoop
		case seen[k] || m.edges[k] != b.cut:
			if b.cut {
				return ufotree.ErrAbsentCut
			}
			return ufotree.ErrDuplicateEdge
		}
		seen[k] = true
	}
	return nil
}

// closesCycle reports whether a valid link batch would close a cycle.
func (m *admModel) closesCycle(b admBatch) bool {
	p := m.uf()
	for _, e := range b.edges {
		ru, rv := m.find(p, e.U), m.find(p, e.V)
		if ru == rv {
			return true
		}
		p[ru] = rv
	}
	return false
}

func (m *admModel) apply(b admBatch) {
	for _, e := range b.edges {
		if b.cut {
			delete(m.edges, norm(e.U, e.V))
		} else {
			m.edges[norm(e.U, e.V)] = true
		}
	}
}

// decodeBatches turns fuzz input into a short sequence of mixed batches:
// a header byte (bit 0: cut, bits 1..: length 1–6) followed by two bytes
// per edge, each decoding to a vertex in [-3, 12] (n = 10, so some are
// out of range).
func decodeBatches(data []byte) []admBatch {
	var out []admBatch
	for len(data) > 0 && len(out) < 8 {
		h := data[0]
		data = data[1:]
		b := admBatch{cut: h&1 == 1}
		for k := 1 + int(h>>1)%6; k > 0 && len(data) >= 2; k-- {
			b.edges = append(b.edges, ufotree.Edge{U: int(data[0]%16) - 3, V: int(data[1]%16) - 3, W: int64(data[0]%7) + 1})
			data = data[2:]
		}
		if len(b.edges) > 0 {
			out = append(out, b)
		}
	}
	return out
}

// encodeBatches is decodeBatches' inverse, for the seed corpus.
func encodeBatches(bs ...admBatch) []byte {
	var out []byte
	for _, b := range bs {
		h := byte(len(b.edges)-1) << 1
		if b.cut {
			h |= 1
		}
		out = append(out, h)
		for _, e := range b.edges {
			out = append(out, byte(e.U+3), byte(e.V+3))
		}
	}
	return out
}

// FuzzBatchAdmission sends mixed batches to the batch entry points of the
// six BatchForest constructors, a DynamicGraph and a DynamicMSF. Each call
// either applies (the UFO forest and the graph's level structure validate,
// and HasEdge/Connected agree with the model for every pair) or is refused
// with the error the model predicts, changing nothing observable. Forests are never sent a batch
// whose only fault is closing a cycle: BatchLink does not check for one.
func FuzzBatchAdmission(f *testing.F) {
	for _, c := range contractBatches {
		b := c.b
		if c.want == ufotree.ErrVertexRange {
			// The contract's (0,9) is out of range on n = 8; here n = 10.
			b = admBatch{edges: edges([2]int{5, 6}, [2]int{0, 10})}
		}
		f.Add(encodeBatches(contractPath, b))
	}
	const n = 10
	f.Fuzz(func(t *testing.T, data []byte) {
		forests := make([]ufotree.BatchForest, 0, 6)
		for _, mk := range batchForestMakers() {
			forests = append(forests, mk(n))
		}
		graph, msf := ufotree.NewDynamicGraph(n), ufotree.NewDynamicMSF(n)
		fm := &admModel{n: n, edges: map[[2]int]bool{}}
		gm := &admModel{n: n, edges: map[[2]int]bool{}}
		ref := refforest.New(n)
		for i, b := range decodeBatches(data) {
			if want := fm.predict(b); want != nil || b.cut || !fm.closesCycle(b) {
				for _, f := range forests {
					if err := applyForest(f, b); !sameOutcome(err, want) {
						t.Fatalf("batch %d %v: %s: got %v, want %v", i, b, f.Name(), err, want)
					}
				}
				if want == nil {
					fm.apply(b)
					for _, e := range b.edges {
						if b.cut {
							ref.Cut(e.U, e.V)
						} else {
							ref.Link(e.U, e.V, e.W)
						}
					}
				}
				u, _ := ufotree.UnderlyingUFO(forests[0])
				if err := u.Validate(); err != nil {
					t.Fatalf("batch %d %v: ufo: %v", i, b, err)
				}
				for _, f := range forests {
					if observe(f) != observe(ref) {
						t.Fatalf("batch %d %v: %s disagrees with refforest", i, b, f.Name())
					}
				}
			}

			want := gm.predict(b)
			for _, g := range []interface {
				view
				Name() string
				AddEdges([]ufotree.Edge) error
				DeleteEdges([]ufotree.Edge) error
			}{graph, msf} {
				var err error
				if b.cut {
					err = g.DeleteEdges(b.edges)
				} else {
					err = g.AddEdges(b.edges)
				}
				if !sameOutcome(err, want) {
					t.Fatalf("batch %d %v: %s: got %v, want %v", i, b, g.Name(), err, want)
				}
			}
			if want == nil {
				gm.apply(b)
			}
			c, _ := ufotree.UnderlyingConnectivity(graph)
			if err := c.Validate(); err != nil {
				t.Fatalf("batch %d %v: conn: %v", i, b, err)
			}
			if observe(graph) != observe(gm) || observe(msf) != observe(gm) {
				t.Fatalf("batch %d %v: graph structures disagree with the model", i, b)
			}
		}
	})
}

// sameOutcome reports whether err is the predicted outcome: nil, or an
// error matching want.
func sameOutcome(err, want error) bool {
	if want == nil {
		return err == nil
	}
	return errors.Is(err, want)
}
