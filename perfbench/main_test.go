package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	ufotree "repro"
	"repro/internal/rng"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesCatalogue holds BENCHMARK.json and the program's metric
// catalogue and workload list in step.
func TestSpecMatchesCatalogue(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestPredictionMap checks workloads.json: one entry per workload, every
// per-layer metric predicted to move some end-to-end metric somewhere, and
// only catalogue names.
func TestPredictionMap(t *testing.T) {
	data, err := os.ReadFile("workloads.json")
	if err != nil {
		t.Fatalf("read workloads.json: %v", err)
	}
	var doc struct {
		HoldoutSeed uint64 `json:"holdout_seed"`
		Workloads   []struct {
			Name        string              `json:"name"`
			Predictions map[string][]string `json:"predictions"`
			Noise       []string            `json:"noise"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("parse workloads.json: %v", err)
	}
	if doc.HoldoutSeed == 0 || len(doc.Workloads) != len(workloads) {
		t.Fatalf("workloads.json: holdout seed %d, %d workloads", doc.HoldoutSeed, len(doc.Workloads))
	}
	e2e, layer := map[string]bool{}, map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, d := range perLayer {
		layer[d.name] = false
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || len(w.Noise) == 0 {
			t.Errorf("workloads.json entry %d: %q with %d noise sources", i, w.Name, len(w.Noise))
		}
		for m, moves := range w.Predictions {
			if _, ok := layer[m]; !ok {
				t.Errorf("%s: %s is not a per-layer metric", w.Name, m)
			}
			layer[m] = true
			for _, e := range moves {
				if !e2e[e] {
					t.Errorf("%s: %s predicts %s, not an end-to-end metric", w.Name, m, e)
				}
			}
		}
	}
	for m, seen := range layer {
		if !seen {
			t.Errorf("per-layer metric %s has no prediction", m)
		}
	}
}

// runTiny runs one workload at smoke-test sizes and returns its parsed
// result line, the whole output, and whether emit reported success.
func runTiny(t *testing.T, name string, trace, corrupt bool) (jsonResult, string, bool) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	cfg := config{workload: name, seed: 7, seconds: 0.4, trace: trace, tiny: true, corrupt: corrupt}
	if trace {
		cfg.spans = t.TempDir()
	}
	var buf bytes.Buffer
	printHeader(&buf, cfg)
	ok = emit(&buf, cfg, w.run(cfg, &buf))
	out := strings.TrimSpace(buf.String())
	last := out[strings.LastIndex(out, "\n")+1:]
	var res jsonResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", name, err, out)
	}
	return res, out, ok
}

// TestSmoke runs every workload for a few rounds, untraced and traced, and
// checks that the oracles pass and every metric BENCHMARK.json names is
// printed with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, out, ok := runTiny(t, w.Name, trace, false)
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, out)
				continue
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			if trace && !strings.Contains(out, "tracing overhead") {
				t.Errorf("%s: traced run printed no tracing overhead\n%s", w.Name, out)
			}
		}
	}
}

// TestOraclesCatchCorruption flips one answer per oracle check and expects
// every workload to report the mismatch and fail.
func TestOraclesCatchCorruption(t *testing.T) {
	for _, w := range workloads {
		res, out, ok := runTiny(t, w.name, false, true)
		if ok || res.Correct || res.Failed == 0 || !strings.Contains(out, "ORACLE MISMATCH") {
			t.Errorf("%s: corrupted answers passed the oracle (correct=%v failed=%d)\n%s", w.name, res.Correct, res.Failed, out)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTreeCopyPathSum(t *testing.T) {
	// 0 <- 1 <- 3, 0 <- 2: weights on the child's edge to its parent.
	tc := &treeCopy{parent: []int32{-1, 0, 0, 1}, weight: []int64{0, 5, 7, 11}, mark: make([]uint32, 4)}
	for _, c := range []struct {
		u, v int
		want int64
	}{{3, 2, 23}, {3, 1, 11}, {2, 2, 0}, {0, 3, 16}} {
		if got := tc.pathSum(c.u, c.v); got != c.want {
			t.Errorf("pathSum(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
}

// TestWalkProbe checks the premise of road-conn's walk probe: the query
// engine picks its walk from the pairs alone, so an edgeless forest takes
// the same walk as a loaded one for the same pairs — shared for pairs
// whose endpoints repeat, independent for uniform ones.
func TestWalkProbe(t *testing.T) {
	const n = 4096
	loaded := ufotree.New(n, ufotree.WithWorkers(2))
	edges := make([]ufotree.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, ufotree.Edge{U: (v - 1) / 2, V: v, W: 1})
	}
	loaded.BatchLink(edges)
	qe := loaded.(ufotree.QueryEngine)
	probe := newWalkProbe(n)
	r := rng.New(3)
	for _, c := range []struct {
		name   string
		span   int // endpoints drawn from [0, span)
		shared int64
	}{{"repeated", 16, 1}, {"uniform", n, 0}} {
		pairs := make([][2]int, 256)
		for i := range pairs {
			pairs[i] = [2]int{r.Intn(c.span), r.Intn(c.span)}
		}
		before, probed := qe.QueryStats().SharedBatches, probe.shared
		loaded.(ufotree.BatchConnectivityQuerier).BatchConnected(pairs)
		probe.check(pairs)
		got, want := probe.shared-probed, qe.QueryStats().SharedBatches-before
		if got != want || got != c.shared {
			t.Errorf("%s pairs: probe counted %d shared calls, loaded forest %d, want %d", c.name, got, want, c.shared)
		}
	}
}
