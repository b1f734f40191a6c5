package serve

import (
	"fmt"
	"sync"
	"time"
)

// Edge is one weighted undirected edge in an engine batch (the serve-layer
// mirror of the facade's Edge; the facade converts at the shim).
type Edge struct {
	U, V int
	W    int64
}

// State is the read-only view admission control validates against. The
// facade's Forest interface satisfies it directly.
type State interface {
	// N returns the number of vertices.
	N() int
	// HasEdge reports whether edge (u,v) is present.
	HasEdge(u, v int) bool
	// Connected reports whether u and v are in the same tree.
	Connected(u, v int) bool
}

// Engine is the batch structure a Batcher drives. Batch calls are only
// ever made from the flusher goroutine, one at a time, which satisfies the
// engine's "queries are read-only between updates" concurrency contract.
type Engine interface {
	State
	// BatchLink inserts a set of edges; admission guarantees the batch is
	// valid (no panic is expected, but the flusher still recovers).
	BatchLink(edges []Edge)
	// BatchCut removes a set of existing edges.
	BatchCut(edges []Edge)
	// BatchConnected answers Connected for every pair. The flusher hands
	// over each window's connectivity queries as one batch, so engines
	// with a cooperative batch-query mode (the UFO shared traversal) see
	// the whole window at once and can deduplicate hot endpoints.
	BatchConnected(pairs [][2]int) []bool
}

// ComponentIDer is optionally implemented by engines that can name the
// component of a vertex with an identifier that is stable between batch
// updates and never reused. Admission control uses it as a fast path for
// cycle detection; without it, components are interned per admission round
// via Connected probes. WithComponentID overrides the engine's own method.
type ComponentIDer interface {
	ComponentID(u int) uint64
}

// Defaults for the flush triggers: windows close at DefaultBatchSize
// pending operations or DefaultMaxWait after the first, whichever first.
const (
	DefaultBatchSize = 1024
	DefaultMaxWait   = 2 * time.Millisecond
)

// Option configures a Batcher at construction.
type Option func(*config)

type config struct {
	batchSize  int
	maxWait    time.Duration
	queueCap   int
	journal    bool
	afterBatch func()
	compID     func(u int) uint64
	pathSum    func(pairs [][2]int) ([]int64, []bool)
	pathMax    func(pairs [][2]int) ([]int64, []bool)
}

// WithBatchSize sets the flush trigger: a window flushes as soon as n
// operations are pending. Values below 1 are clamped to the default.
func WithBatchSize(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.batchSize = n
		}
	}
}

// WithMaxWait sets the latency bound: a window flushes at most d after its
// first operation arrived, full or not. Values <= 0 keep the default.
func WithMaxWait(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.maxWait = d
		}
	}
}

// WithQueueCap sets the submission channel's buffer (default
// 4 x batchSize). Submitters block once the buffer is full — natural
// backpressure against a saturated flusher.
func WithQueueCap(n int) Option {
	return func(c *config) {
		if n >= 1 {
			c.queueCap = n
		}
	}
}

// WithJournal records every committed mutation, in commit order, for
// Journal — the authoritative serialization of a run (replay oracle for
// tests, replication feed for servers). Off by default: the journal grows
// without bound.
func WithJournal() Option {
	return func(c *config) { c.journal = true }
}

// WithAfterBatch installs a hook called on the flusher goroutine after
// every engine batch call, while no other engine access is possible — the
// facade uses it to accumulate the engine's per-batch PhaseStats.
func WithAfterBatch(fn func()) Option {
	return func(c *config) { c.afterBatch = fn }
}

// WithComponentID supplies the component-identifier fast path for cycle
// detection (see ComponentIDer) when the engine value handed to New does
// not itself implement it — the facade shim routes the underlying UFO
// forest's ComponentID through here.
func WithComponentID(fn func(u int) uint64) Option {
	return func(c *config) { c.compID = fn }
}

// WithPathQueries enables PathSum / PathMax on the Batcher, delegating to
// the engine's batch path queries. Without it those submissions are
// answered with ErrUnsupported.
func WithPathQueries(sum, max func(pairs [][2]int) ([]int64, []bool)) Option {
	return func(c *config) {
		c.pathSum = sum
		c.pathMax = max
	}
}

type opKind uint8

const (
	opLink opKind = iota
	opCut
	opConnected
	opPathSum
	opPathMax
	opRead
)

// Timing is the flat per-request timestamp trail: monotonic offsets from
// the Batcher's start, one per ingest stage. Enqueue is when the caller
// submitted, Flush when the flusher drained the request's window, Build
// when its engine batch (or batch query) finished, Respond when the result
// was sent back.
type Timing struct {
	Enqueue time.Duration `json:"enqueue_ns"`
	Flush   time.Duration `json:"flush_ns"`
	Build   time.Duration `json:"build_ns"`
	Respond time.Duration `json:"respond_ns"`
}

// Result is the outcome of one submitted operation.
type Result struct {
	// Err is nil on success; on failure it wraps one of this package's
	// typed errors (errors.Is-matchable), never a panic.
	Err error
	// Seq is the commit sequence number of a successful mutation (1-based,
	// monotone in commit order; 0 for queries and failures).
	Seq uint64
	// Bool is the answer of a Connected query.
	Bool bool
	// Val and OK are the answer of a PathSum / PathMax query.
	Val int64
	// OK reports, for path queries, whether the aggregate exists.
	OK bool
	// Timing is the request's ingest timestamp trail.
	Timing Timing
}

// AppliedOp is one committed mutation in the journal (see WithJournal).
type AppliedOp struct {
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"` // "link" or "cut"
	U    int    `json:"u"`
	V    int    `json:"v"`
	W    int64  `json:"w"`
}

type request struct {
	kind opKind
	u, v int
	w    int64
	fn   func() // opRead
	done chan Result

	enq   time.Time
	flush time.Time
	built time.Time
}

// Batcher coalesces single operations from any number of goroutines into
// admission-validated engine batches. Construct with New, submit with
// Link / Cut / Connected (blocking) or the *Async forms (pipelining), and
// Close when done. All methods are safe for concurrent use.
type Batcher struct {
	eng   Engine
	cfg   config
	in    chan *request
	start time.Time

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	// Flusher-goroutine state.
	seq uint64

	mu      sync.Mutex // guards met and journal against Stats/Journal readers
	met     metrics
	journal []AppliedOp
}

// New starts a Batcher over eng. The flusher goroutine runs until Close.
func New(eng Engine, opts ...Option) *Batcher {
	cfg := config{batchSize: DefaultBatchSize, maxWait: DefaultMaxWait}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queueCap < 1 {
		cfg.queueCap = 4 * cfg.batchSize
		if cfg.queueCap > 1<<16 {
			cfg.queueCap = 1 << 16
		}
	}
	if cfg.compID == nil {
		if c, ok := eng.(ComponentIDer); ok {
			cfg.compID = c.ComponentID
		}
	}
	b := &Batcher{
		eng:   eng,
		cfg:   cfg,
		in:    make(chan *request, cfg.queueCap),
		start: time.Now(),
	}
	b.wg.Add(1)
	go b.run()
	return b
}

// Close stops accepting submissions, flushes everything already enqueued,
// and waits for the flusher to exit. Submissions racing with Close either
// complete normally or return ErrClosed; Close is idempotent.
func (b *Batcher) Close() {
	b.closeMu.Lock()
	if !b.closed {
		b.closed = true
		close(b.in)
	}
	b.closeMu.Unlock()
	b.wg.Wait()
}

// submit enqueues r, blocking while the queue is full. The read lock spans
// the send so Close cannot close the channel under an in-flight send; the
// flusher keeps draining independently, so the lock cannot be held forever.
func (b *Batcher) submit(r *request) (<-chan Result, error) {
	r.done = make(chan Result, 1)
	r.enq = time.Now()
	b.closeMu.RLock()
	if b.closed {
		b.closeMu.RUnlock()
		return nil, ErrClosed
	}
	b.met.submitted.Add(1)
	b.in <- r
	b.closeMu.RUnlock()
	return r.done, nil
}

// LinkAsync submits link (u,v,w) and returns the channel its Result will
// arrive on (buffered; the Batcher never blocks on it). Submission order
// of one goroutine is arrival order, so a caller can pipeline dependent
// operations — e.g. CutAsync then LinkAsync of the same edge — and collect
// both results afterwards; same-edge operations commit in arrival order.
func (b *Batcher) LinkAsync(u, v int, w int64) (<-chan Result, error) {
	return b.submit(&request{kind: opLink, u: u, v: v, w: w})
}

// CutAsync submits cut (u,v); see LinkAsync for the pipelining contract.
func (b *Batcher) CutAsync(u, v int) (<-chan Result, error) {
	return b.submit(&request{kind: opCut, u: u, v: v})
}

// ConnectedAsync submits a connectivity query for (u,v). Window queries
// are answered after all of the window's mutations have committed.
func (b *Batcher) ConnectedAsync(u, v int) (<-chan Result, error) {
	return b.submit(&request{kind: opConnected, u: u, v: v})
}

// PathSumAsync submits a path-sum query for (u,v); requires
// WithPathQueries, otherwise the Result carries ErrUnsupported.
func (b *Batcher) PathSumAsync(u, v int) (<-chan Result, error) {
	return b.submit(&request{kind: opPathSum, u: u, v: v})
}

// PathMaxAsync submits a path-max query for (u,v); requires
// WithPathQueries.
func (b *Batcher) PathMaxAsync(u, v int) (<-chan Result, error) {
	return b.submit(&request{kind: opPathMax, u: u, v: v})
}

// Link inserts edge (u,v,w), blocking until its window commits.
func (b *Batcher) Link(u, v int, w int64) (Result, error) {
	return b.await(b.LinkAsync(u, v, w))
}

// Cut removes edge (u,v), blocking until its window commits.
func (b *Batcher) Cut(u, v int) (Result, error) {
	return b.await(b.CutAsync(u, v))
}

// Connected reports whether u and v are connected, serialized after the
// mutations of its flush window.
func (b *Batcher) Connected(u, v int) (bool, error) {
	r, err := b.await(b.ConnectedAsync(u, v))
	return r.Bool, err
}

// PathSum returns the sum of edge weights on the u..v path (ok false when
// disconnected); requires WithPathQueries.
func (b *Batcher) PathSum(u, v int) (val int64, ok bool, err error) {
	r, err := b.await(b.PathSumAsync(u, v))
	return r.Val, r.OK, err
}

// PathMax returns the maximum edge weight on the u..v path (ok false when
// disconnected or u == v); requires WithPathQueries.
func (b *Batcher) PathMax(u, v int) (val int64, ok bool, err error) {
	r, err := b.await(b.PathMaxAsync(u, v))
	return r.Val, r.OK, err
}

// Read runs fn on the flusher goroutine, serialized with engine batches
// after the mutations of its flush window — the escape hatch for extended
// engine APIs (e.g. BatchPathHops on the concrete UFO forest) that need
// exclusion from updates without a caller-side lock. fn must not submit
// to the same Batcher (it would deadlock waiting on its own flusher) and
// blocks the pipeline while it runs, so keep it short.
func (b *Batcher) Read(fn func()) error {
	_, err := b.await(b.submit(&request{kind: opRead, fn: fn}))
	return err
}

func (b *Batcher) await(ch <-chan Result, err error) (Result, error) {
	if err != nil {
		return Result{Err: err}, err
	}
	r := <-ch
	return r, r.Err
}

// run is the flusher: collect a window (first op, then batchSize-or-
// maxWait), flush it, repeat until the submission channel drains closed.
func (b *Batcher) run() {
	defer b.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	window := make([]*request, 0, b.cfg.batchSize)
	for {
		first, ok := <-b.in
		if !ok {
			return
		}
		window = append(window[:0], first)
		timer.Reset(b.cfg.maxWait)
	collect:
		for len(window) < b.cfg.batchSize {
			select {
			case r, ok := <-b.in:
				if !ok {
					break collect
				}
				window = append(window, r)
			case <-timer.C:
				break collect
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		b.flush(window)
	}
}

// flush processes one drained window: mutations through admission rounds,
// then batch queries, then reads.
func (b *Batcher) flush(window []*request) {
	now := time.Now()
	depth := len(window) + len(b.in)
	var muts, queries, reads []*request
	for _, r := range window {
		r.flush = now
		r.built = now // overwritten when an engine call serves the request
		switch r.kind {
		case opLink, opCut:
			muts = append(muts, r)
		case opRead:
			reads = append(reads, r)
		default:
			queries = append(queries, r)
		}
	}
	b.applyMutations(muts)
	b.answerQueries(queries)
	for _, r := range reads {
		err := b.runRead(r)
		r.built = time.Now()
		b.mu.Lock()
		b.met.reads++
		b.mu.Unlock()
		b.respond(r, Result{Err: err})
	}

	b.mu.Lock()
	b.met.flushes++
	b.met.windowOps += int64(len(window))
	b.met.depthSamples.add(float64(depth))
	b.mu.Unlock()
}

// applyMutations drains muts through admission rounds: each round admits a
// maximal conflict-free set (validated against the live structure),
// applies it as engine batches, and carries the deferred remainder — in
// order — into the next round. Rejections are answered immediately with
// typed errors; a round always decides its first pending operation, so the
// loop terminates.
func (b *Batcher) applyMutations(muts []*request) {
	rem := muts
	for len(rem) > 0 {
		ad := newAdmission(b.eng, b.cfg.compID)
		var links, cuts []Edge
		var admitted []*request
		var deferred []*request
		for _, r := range rem {
			verdict, err := ad.check(r.kind, r.u, r.v)
			switch verdict {
			case vReject:
				b.mu.Lock()
				b.met.rejected++
				b.mu.Unlock()
				b.respond(r, Result{Err: err})
			case vDefer:
				deferred = append(deferred, r)
			case vAdmit:
				admitted = append(admitted, r)
				if r.kind == opLink {
					links = append(links, Edge{U: r.u, V: r.v, W: r.w})
				} else {
					cuts = append(cuts, Edge{U: r.u, V: r.v})
				}
			}
		}
		if len(admitted) > 0 {
			b.commit(admitted, links, cuts)
		}
		b.mu.Lock()
		b.met.deferred += int64(len(deferred))
		b.mu.Unlock()
		rem = deferred
	}
}

// commit runs one admitted sub-batch: cuts first, then links (admission
// guarantees the two sets are edge-disjoint and that no link touches a
// component with an in-round cut, so the split preserves the round's
// serialization). A panic — which admission exists to prevent — is
// recovered and reported to the sub-batch's callers as ErrEngine rather
// than ever reaching a submitter goroutine.
func (b *Batcher) commit(admitted []*request, links, cuts []Edge) {
	err := b.runEngine(cuts, links)
	built := time.Now()
	if err != nil {
		b.mu.Lock()
		b.met.enginePanics++
		b.mu.Unlock()
		for _, r := range admitted {
			r.built = built
			b.respond(r, Result{Err: err})
		}
		return
	}
	b.mu.Lock()
	b.met.batches++
	b.met.batchedMuts += int64(len(admitted))
	for _, r := range admitted {
		if r.kind == opLink {
			b.met.links++
		} else {
			b.met.cuts++
		}
	}
	if b.cfg.journal {
		for _, r := range admitted {
			kind := "link"
			if r.kind == opCut {
				kind = "cut"
			}
			b.journal = append(b.journal, AppliedOp{Seq: b.seq + 1, Kind: kind, U: r.u, V: r.v, W: r.w})
			b.seq++
		}
	} else {
		b.seq += uint64(len(admitted))
	}
	seq := b.seq - uint64(len(admitted))
	b.mu.Unlock()
	for _, r := range admitted {
		seq++
		r.built = built
		b.respond(r, Result{Seq: seq})
	}
}

// runEngine applies one sub-batch to the engine, converting any panic into
// an ErrEngine-wrapped error. The afterBatch hook runs after each engine
// call because engines reset their per-batch telemetry on every call.
func (b *Batcher) runEngine(cuts, links []Edge) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrEngine, p)
		}
	}()
	if len(cuts) > 0 {
		b.eng.BatchCut(cuts)
		if b.cfg.afterBatch != nil {
			b.cfg.afterBatch()
		}
	}
	if len(links) > 0 {
		b.eng.BatchLink(links)
		if b.cfg.afterBatch != nil {
			b.cfg.afterBatch()
		}
	}
	return nil
}

// answerQueries groups a window's queries by kind and answers each group
// with one batch-query fan-out.
func (b *Batcher) answerQueries(queries []*request) {
	var connReqs, sumReqs, maxReqs []*request
	n := b.eng.N()
	for _, r := range queries {
		if r.u < 0 || r.u >= n || r.v < 0 || r.v >= n {
			b.mu.Lock()
			b.met.rejected++
			b.mu.Unlock()
			b.respond(r, Result{Err: fmt.Errorf("%w (%d,%d) in query, n = %d", ErrVertexRange, r.u, r.v, n)})
			continue
		}
		switch r.kind {
		case opConnected:
			connReqs = append(connReqs, r)
		case opPathSum:
			sumReqs = append(sumReqs, r)
		case opPathMax:
			maxReqs = append(maxReqs, r)
		}
	}
	if len(connReqs) > 0 {
		b.runQueryBatch(connReqs, func(pairs [][2]int) ([]Result, error) {
			ans, err := b.safeConnected(pairs)
			if err != nil {
				return nil, err
			}
			out := make([]Result, len(ans))
			for i, v := range ans {
				out[i] = Result{Bool: v}
			}
			return out, nil
		})
	}
	b.runPathBatch(sumReqs, b.cfg.pathSum)
	b.runPathBatch(maxReqs, b.cfg.pathMax)
}

func (b *Batcher) runQueryBatch(reqs []*request, run func(pairs [][2]int) ([]Result, error)) {
	pairs := make([][2]int, len(reqs))
	for i, r := range reqs {
		pairs[i] = [2]int{r.u, r.v}
	}
	results, err := run(pairs)
	built := time.Now()
	b.mu.Lock()
	b.met.queries += int64(len(reqs))
	b.mu.Unlock()
	for i, r := range reqs {
		r.built = built
		if err != nil {
			b.respond(r, Result{Err: err})
		} else {
			b.respond(r, results[i])
		}
	}
}

func (b *Batcher) runPathBatch(reqs []*request, batch func(pairs [][2]int) ([]int64, []bool)) {
	if len(reqs) == 0 {
		return
	}
	if batch == nil {
		b.mu.Lock()
		b.met.queries += int64(len(reqs))
		b.mu.Unlock()
		for _, r := range reqs {
			b.respond(r, Result{Err: fmt.Errorf("%w: path queries", ErrUnsupported)})
		}
		return
	}
	b.runQueryBatch(reqs, func(pairs [][2]int) ([]Result, error) {
		vals, oks, err := b.safePath(batch, pairs)
		if err != nil {
			return nil, err
		}
		out := make([]Result, len(vals))
		for i := range vals {
			out[i] = Result{Val: vals[i], OK: oks[i]}
		}
		return out, nil
	})
}

func (b *Batcher) safeConnected(pairs [][2]int) (ans []bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrEngine, p)
		}
	}()
	return b.eng.BatchConnected(pairs), nil
}

func (b *Batcher) safePath(batch func(pairs [][2]int) ([]int64, []bool), pairs [][2]int) (vals []int64, oks []bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrEngine, p)
		}
	}()
	vals, oks = batch(pairs)
	return vals, oks, nil
}

// runRead executes a Read callback, converting a panic in the caller's fn
// into an error so it cannot kill the flusher.
func (b *Batcher) runRead(r *request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrEngine, p)
		}
	}()
	r.fn()
	return nil
}

// respond stamps the trail, records latency samples, and delivers res.
// Safe to call at most once per request (done is buffered, size 1).
func (b *Batcher) respond(r *request, res Result) {
	now := time.Now()
	res.Timing = Timing{
		Enqueue: r.enq.Sub(b.start),
		Flush:   r.flush.Sub(b.start),
		Build:   r.built.Sub(b.start),
		Respond: now.Sub(b.start),
	}
	b.mu.Lock()
	b.met.latencySamples.add(float64(now.Sub(r.enq)))
	b.met.queueWaitSamples.add(float64(r.flush.Sub(r.enq)))
	b.met.buildSamples.add(float64(r.built.Sub(r.flush)))
	b.mu.Unlock()
	select {
	case r.done <- res:
	default:
	}
}

// Stats returns a snapshot of the Batcher's ingest telemetry.
func (b *Batcher) Stats() Stats {
	submitted := b.met.submitted.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.met.snapshot(submitted)
}

// Journal returns a copy of the committed-mutation journal (empty unless
// WithJournal was set). The journal order is the authoritative
// serialization of the run.
func (b *Batcher) Journal() []AppliedOp {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]AppliedOp(nil), b.journal...)
}
