// Command perfbench is the repository's end-to-end benchmark. It drives the
// three public entry points — ufotree.NewDynamicGraph (road-conn),
// ufotree.NewDynamicMSF (social-msf) and ufotree.NewBatcher over
// ufotree.New (serve-zipf) — from one process, checks every answer against
// an oracle outside the timed sections, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is traced and the metrics are the per-layer ones, read from spans
// the benchmark records around every call into a layer plus the telemetry
// the layers export. A failed oracle check exits with status 1.
//
// Usage (from the repository root, via the build wrapper):
//
//	bash perfbench/run.sh --workload road-conn --seed 1 --seconds 15 --trace 0
//
// --workload all runs the three workloads in turn, each ending with its
// own result line, and fails if any of them does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/rng"
)

// workers is the engine worker count and GOMAXPROCS of every run: the
// two cores of the host the benchmark was sized on.
const workers = 2

// epochs is how many times a run builds its structure afresh: each build
// is one timed set-up, followed by its share of the run's measured work.
const epochs = 4

// config is one invocation's settings; the workload receives only inputs
// generated from seed.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes
	spans    string // directory the traced run writes its spans to ("" = none)

	// corrupt flips one answer before each oracle check, so a test can
	// prove the oracles catch a wrong answer.
	corrupt bool
}

// row is one printed metric: its value, unit, and the sample count or the
// base of the ratio it reports.
type row struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is what a workload run hands back to main.
type result struct {
	attempted, failed int64
	mismatches        []string // first oracle disagreements, for the report
	e2e, layer        []row
	diag              []string // diagnostic lines printed above the metrics
}

func (r *result) addE2E(name string, v float64, unit, note string) {
	r.e2e = append(r.e2e, row{name, v, unit, note})
}

func (r *result) addLayer(name string, v float64, unit, note string) {
	r.layer = append(r.layer, row{name, v, unit, note})
}

// absent adds a zero row for each named per-layer metric this workload
// exercises but cannot read, saying why in its note.
func (r *result) absent(why string, names ...string) {
	for _, n := range names {
		r.layer = append(r.layer, row{n, 0, unitOf(n), "not measured: " + why})
	}
}

func (r *result) diagf(format string, args ...any) {
	r.diag = append(r.diag, fmt.Sprintf(format, args...))
}

// mismatch records one oracle disagreement as a failed operation.
func (r *result) mismatch(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 10 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(cfg config, w io.Writer) *result
}

var workloads = []workload{
	{"road-conn", runRoadConn},
	{"social-msf", runSocialMSF},
	{"serve-zipf", runServeZipf},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "road-conn, social-msf, serve-zipf, or all of them in turn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "directory for the traced run's span dump")
	flag.Parse()
	cfg.trace = trace == 1
	run := workloads
	if cfg.workload != "all" {
		run = nil
		if w, ok := findWorkload(cfg.workload); ok {
			run = []workload{w}
		}
	}
	if len(run) == 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload road-conn|social-msf|serve-zipf|all --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	passed := true
	for _, w := range run {
		cfg.workload = w.name
		printHeader(os.Stdout, cfg)
		passed = emit(os.Stdout, cfg, w.run(cfg, os.Stdout)) && passed
	}
	if !passed {
		os.Exit(1)
	}
}

// printHeader makes the output self-describing: host, toolchain, commit
// and the run's knobs.
func printHeader(w io.Writer, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# GOMAXPROCS=%d NumCPU=%d go=%s commit=%s workers=%d epochs=%d tiny=%v\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit, workers, epochs, cfg.tiny)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the report rows and, last, the JSON result line; it reports
// whether every check passed.
func emit(w io.Writer, cfg config, res *result) bool {
	for _, d := range res.diag {
		fmt.Fprintln(w, d)
	}
	for _, m := range res.mismatches {
		fmt.Fprintf(w, "ORACLE MISMATCH: %s\n", m)
	}
	rows, defs, kind := res.e2e, endToEnd, "end-to-end"
	if cfg.trace {
		rows, defs, kind = res.layer, perLayer, "per-layer"
	}
	fmt.Fprintf(w, "# %s metrics (%s)\n", kind, cfg.workload)
	rows, err := complete(rows, defs, cfg.workload, cfg.trace)
	if err != nil && res.failed == 0 {
		// A workload that stopped early on a failure lacks metrics; that
		// failure is already reported.
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return false
	}
	out := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(rows)),
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %14.6g %-6s %s\n", r.name, r.value, r.unit, r.note)
		out.Metrics[r.name] = jsonMetric{Value: r.value, Unit: r.unit}
	}
	if res.attempted > 0 {
		fmt.Fprintf(w, "failed_ops_frac = %d/%d = %g\n", res.failed, res.attempted, float64(res.failed)/float64(res.attempted))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return false
	}
	fmt.Fprintln(w, string(line))
	return out.Correct
}

// --- sample statistics ---------------------------------------------------

// quantile is the nearest-rank p-quantile (0 <= p <= 1) of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tail reports the highest of p99.99 / p99.9 / p99 / p90 that has at least
// ten samples beyond it, as "p99=12.3ms (n=4000, 40 beyond)".
func tail(xs []float64) string {
	n := len(xs)
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.9} {
		beyond := int(float64(n) * (1 - p))
		if beyond >= 10 {
			return fmt.Sprintf("p%g=%.4gms (n=%d, %d beyond)", 100*p, quantile(xs, p), n, beyond)
		}
	}
	return fmt.Sprintf("n=%d: too few samples for a tail", n)
}

// --- memory --------------------------------------------------------------

// liveHeap is the live heap in bytes after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeMeter sums the Go runtime's GC cycles, GC pause and bytes
// allocated over the intervals between start and stop, so the benchmark's
// own bookkeeping between intervals stays out of the runtime rows. The
// MemStats are kept in the meter so reading them allocates nothing.
type runtimeMeter struct {
	gcs, pauseNs, alloc uint64
	mark, now           runtime.MemStats
}

func (m *runtimeMeter) start() { runtime.ReadMemStats(&m.mark) }

func (m *runtimeMeter) stop() {
	runtime.ReadMemStats(&m.now)
	m.gcs += uint64(m.now.NumGC - m.mark.NumGC)
	m.pauseNs += m.now.PauseTotalNs - m.mark.PauseTotalNs
	m.alloc += m.now.TotalAlloc - m.mark.TotalAlloc
}

// merge adds o's totals to m.
func (m *runtimeMeter) merge(o *runtimeMeter) {
	m.gcs += o.gcs
	m.pauseNs += o.pauseNs
	m.alloc += o.alloc
}

// runtimeRows reports the meter's totals per operation, so a faster
// program that fits more operations into the run does not read worse.
func runtimeRows(res *result, m *runtimeMeter, ops int64, what string) {
	kops := float64(ops) / 1e3
	note := fmt.Sprintf("%d GC cycles, %.3g ms GC pause, %d bytes allocated over %d ops inside %s",
		m.gcs, float64(m.pauseNs)/1e6, m.alloc, ops, what)
	res.addLayer("runtime.gc_cycles_per_kop", per(float64(m.gcs), kops), "count", note)
	res.addLayer("runtime.gc_pause_us_per_kop", per(float64(m.pauseNs)/1e3, kops), "us", note)
	res.addLayer("runtime.alloc_bytes_per_op", per(float64(m.alloc), float64(ops)), "B", note)
}

// setups collects one run's set-up times and the structure's live heap.
type setups struct {
	times  []float64
	heapMB float64
}

// build runs one timed set-up (construction plus bulk load) after a full
// collection. The first set-up of a run also measures the structure's live
// heap: heap after set-up minus heap before construction, both after GC.
func (s *setups) build(fn func() error) error {
	var base uint64
	first := len(s.times) == 0
	if first {
		base = liveHeap()
	} else {
		runtime.GC()
	}
	t0 := time.Now()
	err := fn()
	s.times = append(s.times, time.Since(t0).Seconds())
	if first && err == nil {
		s.heapMB = (float64(liveHeap()) - float64(base)) / (1 << 20)
	}
	return err
}

// rows adds setup_s (the median set-up) and live_heap_mb.
func (s *setups) rows(res *result, what string) {
	res.addE2E("setup_s", median(s.times), "s", fmt.Sprintf("median of %d set-ups %v: %s", len(s.times), fmtSecs(s.times), what))
	res.addE2E("live_heap_mb", s.heapMB, "MB", "live heap after the first set-up minus before construction, after GC")
}

func fmtSecs(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3g", x)
	}
	return "[" + strings.Join(out, " ") + "]"
}

// epochSeed derives the seed of epoch e of a run.
func epochSeed(seed uint64, e int) uint64 { return rng.Hash64(seed*0x9e3779b97f4a7c15 + uint64(e)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
