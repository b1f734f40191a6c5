package admit

import (
	"errors"
	"strings"
	"testing"
)

func TestEdgeKeyOrientation(t *testing.T) {
	if Key(3, 7) != Key(7, 3) {
		t.Fatal("Key must be orientation-free")
	}
	if Key(3, 7) == Key(3, 8) {
		t.Fatal("Key must separate distinct edges")
	}
	if got, want := Key(9, 2), uint64(2)<<32|9; got != want {
		t.Fatalf("Key(9,2) = %#x, want min<<32|max = %#x", got, want)
	}
}

// present is the edge set {(0,1), (1,2)} over n = 5.
func present(u, v int) bool {
	k := Key(u, v)
	return k == Key(0, 1) || k == Key(1, 2)
}

// TestBatchPrecedence pins the rule order — range, self loop, repeat,
// presence — per edge, the first violating edge winning, and the message
// naming the batch kind and the edge.
func TestBatchPrecedence(t *testing.T) {
	cases := []struct {
		name  string
		op    Op
		batch [][2]int
		want  error
		msg   string
	}{
		{"valid link", Link, [][2]int{{2, 3}, {3, 4}}, nil, ""},
		{"valid cut", Cut, [][2]int{{1, 0}, {1, 2}}, nil, ""},
		{"range", Add, [][2]int{{2, 3}, {0, 9}}, ErrVertexRange, "(0,9) in batch add, n = 5"},
		{"negative", Delete, [][2]int{{-1, 1}}, ErrVertexRange, "(-1,1) in batch delete"},
		{"range before self loop", Link, [][2]int{{7, 7}}, ErrVertexRange, "(7,7)"},
		{"self loop", Link, [][2]int{{2, 3}, {4, 4}}, ErrSelfLoop, "self loop (4,4) in batch link"},
		{"self loop cut", Cut, [][2]int{{3, 3}}, ErrSelfLoop, "(3,3) in batch cut"},
		{"repeat", Link, [][2]int{{2, 3}, {3, 2}}, ErrDuplicateEdge, "(3,2) repeated in batch link"},
		// (1,0) is present, so only the repeat rule, applied first, refuses it.
		{"repeat cut", Cut, [][2]int{{0, 1}, {1, 0}}, ErrAbsentCut, "(1,0) repeated in batch cut"},
		{"present", Add, [][2]int{{2, 3}, {1, 0}}, ErrDuplicateEdge, "duplicate edge (1,0) in batch add"},
		{"absent", Delete, [][2]int{{0, 1}, {0, 4}}, ErrAbsentCut, "cutting absent edge (0,4) in batch delete"},
		{"first violation wins", Link, [][2]int{{0, 1}, {4, 4}}, ErrDuplicateEdge, "(0,1)"},
	}
	var c Check
	for _, tc := range cases {
		at := func(i int) (int, int) { return tc.batch[i][0], tc.batch[i][1] }
		err := c.Batch(tc.op, 5, len(tc.batch), at, present)
		if !errors.Is(err, tc.want) || (err == nil) != (tc.want == nil) {
			t.Errorf("%s: got %v, want errors.Is(%v)", tc.name, err, tc.want)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: message %q does not contain %q", tc.name, err, tc.msg)
		}
		if Repeated(err) != strings.HasPrefix(tc.name, "repeat") {
			t.Errorf("%s: Repeated(%v) = %v", tc.name, err, Repeated(err))
		}
	}
}

// TestEdgeDoesNotMark pins the per-edge form the serve layer builds on:
// Edge decides without recording, Mark records, and Batch forgets.
func TestEdgeDoesNotMark(t *testing.T) {
	var c Check
	if err := c.Edge(Link, 5, 2, 3, present); err != nil {
		t.Fatalf("fresh edge: %v", err)
	}
	if err := c.Edge(Link, 5, 3, 2, present); err != nil {
		t.Fatalf("unmarked edge reported: %v", err)
	}
	c.Mark(2, 3)
	if err := c.Edge(Cut, 5, 3, 2, present); !Repeated(err) || !errors.Is(err, ErrAbsentCut) {
		t.Fatalf("marked edge: got %v, want a repeat wrapping ErrAbsentCut", err)
	}
	if err := c.Batch(Link, 5, 1, func(int) (int, int) { return 3, 2 }, present); err != nil {
		t.Fatalf("Batch after Mark: %v", err)
	}
}

// TestBatchReuseDoesNotAllocate pins the steady state the engines rely on:
// once a Check has seen a batch, checking a batch of the same size again
// allocates nothing.
func TestBatchReuseDoesNotAllocate(t *testing.T) {
	batch := make([][2]int, 256)
	for i := range batch {
		batch[i] = [2]int{i, i + 1}
	}
	none := func(u, v int) bool { return false }
	at := func(i int) (int, int) { return batch[i][0], batch[i][1] }
	var c Check
	if err := c.Batch(Link, 512, len(batch), at, none); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.Batch(Link, 512, len(batch), at, none); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Batch allocates %.1f times per call", allocs)
	}
}
