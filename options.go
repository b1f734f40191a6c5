package ufotree

// Option configures a structure at construction time — the facade's
// functional-option style for New and NewDynamicGraph. The existing
// post-construction setters (SetWorkers, and EnableSubtreeMax on the
// concrete forest) remain as thin wrappers over the same state for callers
// that reconfigure live structures; the options exist so a fully
// configured structure can be built in one expression.
type Option func(*buildOptions)

type buildOptions struct {
	workers    int
	workersSet bool
	subtreeMax bool
	levels     int
}

// WithWorkers fixes the batch worker count at construction, with the
// BatchForest.SetWorkers clamp rules: k <= 0 means GOMAXPROCS, k == 1 is
// fully sequential, oversubscription is allowed. Without this option a new
// structure starts sequential (the engines' default).
func WithWorkers(k int) Option {
	return func(o *buildOptions) {
		o.workers = k
		o.workersSet = true
	}
}

// WithSubtreeMax enables subtree-max tracking on the UFO forest built by
// New — the construction-time form of (*ufo.Forest).EnableSubtreeMax,
// which must run before the first update. NewDynamicGraph ignores it (the
// connectivity layer is unweighted).
func WithSubtreeMax() Option {
	return func(o *buildOptions) { o.subtreeMax = true }
}

// WithLevels fixes the depth of the level structure NewDynamicGraph builds
// for its HDT-style replacement search. l <= 0 selects the ~log n default;
// larger values are clamped down to it (deeper levels could never hold an
// edge under the size invariant); smaller values trade amortization for
// memory — l == 1 reproduces a single-level search. New ignores it (plain
// forests have no connectivity level structure).
func WithLevels(l int) Option {
	return func(o *buildOptions) { o.levels = l }
}

// New returns the library's primary structure — a UFO-tree forest over n
// vertices (the same structure as NewUFO) — configured by opts:
//
//	f := ufotree.New(n, ufotree.WithWorkers(8), ufotree.WithSubtreeMax())
//
// It supports every interface in this package.
func New(n int, opts ...Option) BatchForest {
	var o buildOptions
	for _, opt := range opts {
		opt(&o)
	}
	f := NewUFO(n)
	if o.subtreeMax {
		if u, ok := UnderlyingUFO(f); ok {
			u.EnableSubtreeMax()
		}
	}
	if o.workersSet {
		f.SetWorkers(o.workers)
	}
	return f
}
