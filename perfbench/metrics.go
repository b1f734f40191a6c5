package main

import "fmt"

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; the smoke test holds the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0. Each
// workload fills them from its own entry point (see README.md): update
// batches on road-conn and social-msf, single ops at the fixed high rate
// on serve-zipf.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"throughput_ops_per_s", "1/s"},
	{"delete_p50_ms", "ms"},
	{"delete_p90_ms", "ms"},
	{"add_p50_ms", "ms"},
	{"add_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
}

// perLayer are the metrics the traced run reports. A workload reports 0
// for a layer it does not reach, and for one it reaches but cannot read
// (see result.absent), saying which in the row's note.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"ufotree.self_ms_per_add_batch", "ms"},
		{"ufotree.self_ms_per_delete_batch", "ms"},
	}
	for _, ph := range []string{"classify", "forest_cut", "forest_link", "search", "push_down", "promote", "nontree"} {
		defs = append(defs, metricDef{"conn." + ph + "_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"conn.sweeps_per_delete_batch", "count"},
		metricDef{"conn.scanned_per_delete", "count"},
		metricDef{"conn.promoted_per_delete", "count"},
		metricDef{"conn.max_level_used", "count"},
	)
	for _, ph := range []string{"cycle_max", "swap", "search", "forest_cut", "forest_link", "nontree"} {
		defs = append(defs, metricDef{"msf." + ph + "_share", "ratio"})
	}
	defs = append(defs,
		metricDef{"msf.swap_rounds_per_add_batch", "count"},
		metricDef{"msf.swaps_per_add", "count"},
		metricDef{"msf.promotions_per_delete", "count"},
	)
	for _, step := range []string{"low", "high"} {
		for _, m := range []metricDef{
			{"serve.mean_window_ops", "count"},
			{"serve.mean_engine_batch", "count"},
			{"serve.engine_batches_per_flush", "count"},
			{"serve.deferred_per_mutation", "count"},
			{"serve.rejected_frac", "ratio"},
			{"serve.queue_depth_p90", "count"},
		} {
			defs = append(defs, metricDef{m.name + "." + step, m.unit})
		}
	}
	defs = append(defs,
		metricDef{"ufo.update_busy_share", "ratio"},
		metricDef{"ufo.us_per_link", "us"},
		metricDef{"ufo.us_per_cut", "us"},
		metricDef{"ufo.levels_per_batch", "count"},
		metricDef{"ufo.recluster_share", "ratio"},
		metricDef{"ufo.cond_delete_share", "ratio"},
		metricDef{"ufo.disconnect_share", "ratio"},
		metricDef{"ufo.query_busy_share", "ratio"},
		metricDef{"ufo.queries_per_ms.connected", "1/ms"},
		metricDef{"ufo.queries_per_ms.pathsum", "1/ms"},
		metricDef{"ufo.queries_per_ms.pathmax", "1/ms"},
		metricDef{"ufo.shared_batch_frac", "ratio"},
		metricDef{"ufo.memo_hits_per_query", "count"},
		metricDef{"ufo.cluster_visits_per_query", "count"},
		metricDef{"ufo.arena_live_slots", "count"},
		metricDef{"ufo.arena_hot_mb", "MB"},
		metricDef{"runtime.gc_cycles_per_kop", "count"},
		metricDef{"runtime.gc_pause_us_per_kop", "us"},
		metricDef{"runtime.alloc_bytes_per_op", "B"},
	)
	return defs
}()

// unitOf is the catalogue unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// complete orders rows by the catalogue. With zeroFill it adds a zero row
// for every catalogue metric the workload does not exercise; without, a
// missing metric is an error. A row missing from the catalogue, or
// reported with another unit, is a bug in the benchmark.
func complete(rows []row, defs []metricDef, workload string, zeroFill bool) ([]row, error) {
	got := make(map[string]row, len(rows))
	for _, r := range rows {
		got[r.name] = r
	}
	out := make([]row, 0, len(defs))
	for _, d := range defs {
		r, ok := got[d.name]
		switch {
		case !ok && !zeroFill:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case !ok:
			r = row{d.name, 0, d.unit, "not reached by " + workload}
		}
		if r.unit != d.unit {
			return nil, fmt.Errorf("metric %s reported in %s, catalogue says %s", d.name, r.unit, d.unit)
		}
		delete(got, d.name)
		out = append(out, r)
	}
	for name := range got {
		return nil, fmt.Errorf("metric %s is not in the catalogue", name)
	}
	return out, nil
}
