package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// names and units (a test keeps them in step).
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the cluster sees, steady enough run
// to run to carry a regression bound; every workload reports each of
// them from its untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"slo_attainment", "share"},
	{"top1", "share"},
}

// perLayerMetrics come from the traced run: the user-visible numbers too
// unsteady to bound (the median follows the shared host's speed, and
// spurious guard heals move the tail and capacity by a third from run to
// run), serving counters over the measured phase, gateway counters and
// probes, single-layer probes on an idle System, and the generator's own
// costs.
var perLayerMetrics = []metricDef{
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"failed_frac", "share"},
	{"serve.queue_wait_mean_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.forward_p50_ms", "ms"},
	{"serve.batch_mean", "requests"},
	{"serve.hit_ratio", "share"},
	{"serve.personalize_mean_ms", "ms"},
	{"serve.personalize_runs", "count"},
	{"serve.compiled_share", "share"},
	{"serve.compile_mean_ms", "ms"},
	{"serve.guard_trips", "count"},
	{"serve.heals", "count"},
	{"serve.skew_detected", "count"},
	{"serve.fallback_served", "count"},
	{"serve.shed", "count"},
	{"serve.evictions", "count"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.failovers", "count"},
	{"cluster.route_us", "us"},
	{"cluster.ring_lookup_ns", "ns"},
	{"nn.compiled_b1_ms", "ms"},
	{"nn.compiled_b8_ms", "ms"},
	{"nn.masked_b1_ms", "ms"},
	{"nn.unpruned_b1_ms", "ms"},
	{"nn.compile_ms", "ms"},
	{"nn.compiled_b1_allocs", "allocs"},
	{"nn.compiled_b8_allocs", "allocs"},
	{"nn.masked_b1_allocs", "allocs"},
	{"nn.unpruned_b1_allocs", "allocs"},
	{"nn.compile_allocs", "allocs"},
	{"core.prune_ms", "ms"},
	{"core.prune_mb", "MiB"},
	{"core.suffix_eval_ms", "ms"},
	{"workload.event_us", "us"},
	{"workload.lateness_p99_ms", "ms"},
	{"workload.lateness_max_ms", "ms"},
	{"trace.span_cost_ns", "ns"},
	{"trace.overhead_pct", "%"},
}

// export prints every measured value to stderr and returns the metrics
// the result line carries: end-to-end untraced, per-layer traced.
func export(m map[string]float64, traced bool) (map[string]metric, error) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "perfbench:   %-28s %14.4f\n", k, m[k])
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// compareUntraced prints the traced run's end-to-end numbers beside the
// untraced run of the same workload and seed, when one exists here.
func compareUntraced(sp spec, seed int64, m map[string]float64) {
	b, err := os.ReadFile(reportPath(sp, seed, false))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: no untraced %s run with seed %d to compare against\n", sp.name, seed)
		return
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: untraced report: %v\n", err)
		return
	}
	for _, d := range endToEndMetrics {
		fmt.Fprintf(os.Stderr, "perfbench: traced/untraced %-16s %12.4f / %12.4f %s\n", d.name, m[d.name], r.Metrics[d.name], d.unit)
	}
}
