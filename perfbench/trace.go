package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	ufotree "repro"
)

// span is one traced interval: a call into a layer, or a phase the layer
// reported for that call. Offsets are from the tracer's origin; Parent is
// -1 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. The serve-zipf wrapper
// records from the Batcher's flusher goroutine, hence the mutex.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(parent int, name string, start, end time.Duration) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{id, parent, name, start, end})
	t.mu.Unlock()
	return id
}

// call records a span named name over [t0, t1] and, under it, the layer
// span and phase spans of the layer's PhaseStats for that call. Layers
// report phase durations, not timestamps, so the layer span is placed at
// the end of the call (validation and conversion run first) and its phases
// are laid out back to back in table order; phase times are disjoint
// sub-intervals of the layer's Total, which keeps the nesting exact.
func (t *tracer) call(name string, t0, t1 time.Time, layer string, ps *ufotree.PhaseStats) int {
	start, end := t0.Sub(t.origin), t1.Sub(t.origin)
	id := t.add(-1, name, start, end)
	if ps == nil {
		return id
	}
	ls := end - ps.Total
	if ls < start {
		ls = start
	}
	lid := t.add(id, layer, ls, ls+ps.Total)
	at := ls
	for _, p := range ps.Phases {
		if p.Time > 0 {
			t.add(lid, layer+"."+p.Name, at, at+p.Time)
			at += p.Time
		}
	}
	return id
}

// selfTimes aggregates every span name's count, total time and self time
// (its duration minus the part its children cover; children of one span
// are disjoint by construction).
func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	agg := map[string]*selfTime{}
	for i, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		a.count++
		a.total += s.dur()
		a.self += s.dur() - child[i]
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// report prints the self-time table and writes the spans, one JSON object
// per line, to dir/<workload>-seed<seed>.jsonl when dir is set.
func (t *tracer) report(w io.Writer, dir, workload string, seed uint64) error {
	fmt.Fprintf(w, "# trace self time (%d spans): name count total_ms self_ms\n", len(t.spans))
	for _, s := range t.selfTimes() {
		fmt.Fprintf(w, "#   %-36s %8d %12.3f %12.3f\n", s.name, s.count, ms(s.total), ms(s.self))
	}
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "# spans written to %s\n", path)
	return nil
}

// phaseTime returns the accumulated time and items of the named phase.
func phaseTime(ps ufotree.PhaseStats, name string) (time.Duration, int64) {
	for _, p := range ps.Phases {
		if p.Name == name {
			return p.Time, p.Items
		}
	}
	return 0, 0
}

// phaseSum is the total time of every phase in ps.
func phaseSum(ps ufotree.PhaseStats) time.Duration {
	var t time.Duration
	for _, p := range ps.Phases {
		t += p.Time
	}
	return t
}

// share is part/whole, 0 when whole is 0.
func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}
