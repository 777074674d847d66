package main

import (
	"math"
	"sort"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/metrics"
	"capnn/internal/serve"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs at least 1000 samples, a median at least 20.
const minBeyond = 10

// rank is the 1-based nearest rank of quantile p over n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples carry the p-quantile: at least
// minBeyond samples must rank above it.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// percentile is the nearest-rank p-quantile of sorted (ascending). ok is
// false when the sample is too small to report it (see supported).
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	return sorted[rank(len(sorted), p)-1], supported(len(sorted), p)
}

// outcome is one sent request as the client saw it. A request that
// failed, was refused over the in-flight cap, or never answered has
// ok=false and misses every latency limit.
type outcome struct {
	ok      bool
	latency time.Duration // from the request's due time to its answer
}

// latencies returns the sorted latencies in milliseconds. Failed
// requests enter as +Inf, so a failure pushes every percentile up
// instead of vanishing from the sample.
func latencies(outs []outcome) []float64 {
	ms := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.ok {
			ms = append(ms, float64(o.latency)/float64(time.Millisecond))
		} else {
			ms = append(ms, math.Inf(1))
		}
	}
	sort.Float64s(ms)
	return ms
}

// attainment is the share of sent requests answered OK within limit.
func attainment(outs []outcome, limit time.Duration) float64 {
	n := 0
	for _, o := range outs {
		if o.ok && o.latency <= limit {
			n++
		}
	}
	return ratio(float64(n), float64(len(outs)))
}

// ratio is n/d, and 0 when d is 0.
func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// shardSnap is one shard's cumulative serving counters at an instant,
// plus its queue-wait and forward-latency histograms.
type shardSnap struct {
	counters  map[string]float64
	wait, fwd metrics.HistSnapshot
}

// serveCounters flattens the cumulative serve.Stats fields the
// per-layer metrics use, so deltas and shard pooling are plain sums.
func serveCounters(st serve.Stats) map[string]float64 {
	batched := 0.0
	for size, n := range st.BatchHistogram {
		batched += float64(size) * float64(n)
	}
	return map[string]float64{
		"hits":        float64(st.CacheHits),
		"misses":      float64(st.CacheMisses),
		"shared":      float64(st.SingleflightShared),
		"evictions":   float64(st.CacheEvictions),
		"batches":     float64(st.Batches),
		"batched":     batched,
		"pers_ns":     float64(st.PersonalizeNs),
		"pers_runs":   float64(st.PersonalizeRuns),
		"wait_ns":     float64(st.QueueWaitNs),
		"wait_obs":    float64(st.QueueWaitObs),
		"compile_ns":  float64(st.CompileNs),
		"compiles":    float64(st.Compiles),
		"compiled":    float64(st.CompiledDispatched),
		"masked":      float64(st.MaskedFallback),
		"guard_trips": float64(st.GuardTrips),
		"heals":       float64(st.Heals),
		"skew":        float64(st.SkewDetected),
		"fallback":    float64(st.FallbackServed),
		"shed":        float64(st.Shed),
	}
}

func snapShard(srv *serve.Server) shardSnap {
	s := shardSnap{counters: serveCounters(srv.Stats())}
	for _, f := range srv.Metrics().Gather() {
		if len(f.Samples) == 0 || f.Samples[0].Hist == nil {
			continue
		}
		switch f.Name {
		case "capnn_serve_queue_wait_ns":
			s.wait = *f.Samples[0].Hist
		case "capnn_serve_forward_latency_ns":
			s.fwd = *f.Samples[0].Hist
		}
	}
	return s
}

// histDelta accumulates after−before into acc (bucket layouts are
// identical; acc may be the zero value).
func histDelta(acc, before, after metrics.HistSnapshot) metrics.HistSnapshot {
	if acc.Counts == nil {
		acc = metrics.HistSnapshot{Bounds: after.Bounds, Counts: make([]uint64, len(after.Counts))}
	}
	acc.Count += after.Count - before.Count
	acc.Sum += after.Sum - before.Sum
	for i := range after.Counts {
		acc.Counts[i] += after.Counts[i]
		if i < len(before.Counts) {
			acc.Counts[i] -= before.Counts[i]
		}
	}
	return acc
}

// serveLayer pools every shard's work between two snapshots and maps it
// onto the serve per-layer metrics.
func serveLayer(before, after []shardSnap) map[string]float64 {
	d := map[string]float64{}
	var wait, fwd metrics.HistSnapshot
	for i := range after {
		for k, v := range after[i].counters {
			d[k] += v - before[i].counters[k]
		}
		wait = histDelta(wait, before[i].wait, after[i].wait)
		fwd = histDelta(fwd, before[i].fwd, after[i].fwd)
	}
	return map[string]float64{
		"serve.queue_wait_mean_ms":  ratio(d["wait_ns"], d["wait_obs"]) / 1e6,
		"serve.queue_wait_p99_ms":   wait.Quantile(0.99) / 1e6,
		"serve.forward_p50_ms":      fwd.Quantile(0.50) / 1e6,
		"serve.batch_mean":          ratio(d["batched"], d["batches"]),
		"serve.hit_ratio":           ratio(d["hits"], d["hits"]+d["misses"]+d["shared"]),
		"serve.personalize_mean_ms": ratio(d["pers_ns"], d["pers_runs"]) / 1e6,
		"serve.personalize_runs":    d["pers_runs"],
		"serve.compiled_share":      ratio(d["compiled"], d["compiled"]+d["masked"]),
		"serve.compile_mean_ms":     ratio(d["compile_ns"], d["compiles"]) / 1e6,
		"serve.guard_trips":         d["guard_trips"],
		"serve.heals":               d["heals"],
		"serve.skew_detected":       d["skew"],
		"serve.fallback_served":     d["fallback"],
		"serve.shed":                d["shed"],
		"serve.evictions":           d["evictions"],
	}
}

// gatewayLayer maps a gateway Stats delta onto the cluster metrics.
// shardSkew is the busiest member's routed attempts over the mean.
func gatewayLayer(before, after cluster.Stats) map[string]float64 {
	var total, busiest float64
	for addr, n := range after.Nodes {
		r := float64(n.Requests - before.Nodes[addr].Requests)
		total += r
		if r > busiest {
			busiest = r
		}
	}
	return map[string]float64{
		"cluster.shard_skew": ratio(busiest, ratio(total, float64(len(after.Nodes)))),
		"cluster.retries":    float64(after.Retries - before.Retries),
		"cluster.failovers":  float64(after.Failovers - before.Failovers),
	}
}
