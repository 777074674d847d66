package main

import (
	"math"
	"testing"
	"time"

	"capnn/internal/cluster"
	"capnn/internal/metrics"
	"capnn/internal/nn"
	"capnn/internal/serve"
	"capnn/internal/tensor"
)

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}} {
		if got, _ := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{5000, 1, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
		s := make([]float64, c.n)
		if _, ok := percentile(s, c.p); ok != c.want {
			t.Errorf("percentile over %d samples at p%v: ok=%v, want %v", c.n, c.p, ok, c.want)
		}
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	outs := []outcome{
		{ok: true, latency: 10 * time.Millisecond},
		{ok: true, latency: 30 * time.Millisecond},
		{ok: false, latency: time.Millisecond}, // failed fast: still misses
		{ok: false},                            // over the in-flight cap
	}
	if got := attainment(outs, time.Second); got != 0.5 {
		t.Errorf("attainment = %v, want 0.5", got)
	}
	if got := attainment(outs, 20*time.Millisecond); got != 0.25 {
		t.Errorf("attainment under 20ms = %v, want 0.25", got)
	}
	lat := latencies(outs)
	if len(lat) != 4 || !math.IsInf(lat[2], 1) || !math.IsInf(lat[3], 1) {
		t.Errorf("latencies = %v, want two finite values then two +Inf", lat)
	}
	if v, _ := percentile(lat, 0.75); !math.IsInf(v, 1) {
		t.Errorf("p75 with half the requests failed = %v, want +Inf", v)
	}
	if got := attainment(nil, time.Second); got != 0 {
		t.Errorf("attainment of nothing sent = %v, want 0", got)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
}

func TestServeLayerDeltas(t *testing.T) {
	bounds := metrics.LatencyBucketsNs()
	hist := func(counts map[int]uint64) metrics.HistSnapshot {
		h := metrics.HistSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
		for i, n := range counts {
			h.Counts[i] = n
			h.Count += n
			h.Sum += float64(n) * bounds[i]
		}
		return h
	}
	before := shardSnap{
		counters: serveCounters(serve.Stats{CacheHits: 10, CacheMisses: 5, Batches: 4,
			BatchHistogram: map[int]uint64{1: 2, 3: 2}, QueueWaitNs: 4e6, QueueWaitObs: 8}),
		wait: hist(map[int]uint64{6: 8}),
		fwd:  hist(map[int]uint64{6: 4}),
	}
	after := shardSnap{
		counters: serveCounters(serve.Stats{CacheHits: 40, CacheMisses: 5, Batches: 14,
			BatchHistogram: map[int]uint64{1: 2, 3: 12}, QueueWaitNs: 34e6, QueueWaitObs: 38,
			CompiledDispatched: 30, PersonalizeRuns: 0}),
		wait: hist(map[int]uint64{6: 8, 9: 30}),
		fwd:  hist(map[int]uint64{6: 4, 9: 10}),
	}
	got := serveLayer([]shardSnap{before}, []shardSnap{after})
	for name, want := range map[string]float64{
		"serve.hit_ratio":           1,    // 30 hits, no new misses
		"serve.batch_mean":          3,    // 10 new batches of 3
		"serve.queue_wait_mean_ms":  1,    // 30ms over 30 waits
		"serve.compiled_share":      1,    // 30 compiled, 0 masked
		"serve.personalize_mean_ms": 0,    // no runs: 0, not NaN
		"serve.compile_mean_ms":     0,    // no compiles
		"serve.personalize_runs":    0,    // none in the interval
		"serve.queue_wait_p99_ms":   9.95, // every new wait in the 5ms..10ms bucket
		"serve.forward_p50_ms":      7.5,  // interpolated inside 5ms..10ms
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}

	idle := serveLayer([]shardSnap{before}, []shardSnap{before})
	for name, v := range idle {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("idle interval: %s = %v, want 0", name, v)
		}
	}
}

func TestGatewayLayerSkew(t *testing.T) {
	before := cluster.Stats{Retries: 1, Nodes: map[string]cluster.NodeStats{"a": {Requests: 5}, "b": {Requests: 5}, "c": {}}}
	after := cluster.Stats{Retries: 3, Failovers: 1, Nodes: map[string]cluster.NodeStats{"a": {Requests: 65}, "b": {Requests: 35}, "c": {Requests: 30}}}
	got := gatewayLayer(before, after)
	if got["cluster.shard_skew"] != 1.5 || got["cluster.retries"] != 2 || got["cluster.failovers"] != 1 {
		t.Errorf("gateway layer = %v, want skew 1.5 (60 of mean 40), 2 retries, 1 failover", got)
	}
	if got := gatewayLayer(cluster.Stats{}, cluster.Stats{}); got["cluster.shard_skew"] != 0 {
		t.Errorf("no members: skew %v, want 0", got["cluster.shard_skew"])
	}
}

func TestReferenceRejectsWrongMask(t *testing.T) {
	net := nn.NewBuilder(1, 8, 8, 5).Conv(4).ReLU().Pool().Flatten().Dense(6).ReLU().Dense(3).MustBuild()
	x := tensor.New(1, 1, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = math.Sin(float64(i))
	}
	masks := map[int][]bool{0: {true, false, false, false}}
	wrong := map[int][]bool{0: {false, false, true, false}} // one channel off
	pruned := net.Infer(x, masks).Data()
	unpruned := net.Forward(x).Data()
	served := net.Infer(x, wrong).Data()
	if sameBits(served, pruned) {
		t.Fatal("test masks do not change the logits")
	}
	if err := checkReference(served, false, pruned, unpruned); err == nil {
		t.Error("an answer served under a wrong mask passed the reference check")
	}
	if err := checkReference(pruned, false, pruned, unpruned); err != nil {
		t.Errorf("correct pruned answer rejected: %v", err)
	}
	if err := checkReference(unpruned, false, pruned, unpruned); err != nil {
		t.Errorf("shadow-sampled (unpruned) answer rejected: %v", err)
	}
	if err := checkReference(pruned, true, pruned, unpruned); err == nil {
		t.Error("a fallback answer that is not the unpruned forward passed")
	}
}

func TestCheckAnswer(t *testing.T) {
	ok := &serve.WireResponse{Logits: []float64{0.1, 0.7, 0.2}, Class: 1, Batch: 3}
	if err := checkAnswer(ok, 3, 8); err != nil {
		t.Errorf("well-formed answer rejected: %v", err)
	}
	for name, bad := range map[string]*serve.WireResponse{
		"short logits": {Logits: []float64{0.1, 0.7}, Class: 1, Batch: 1},
		"not argmax":   {Logits: []float64{0.1, 0.7, 0.2}, Class: 2, Batch: 1},
		"batch 0":      {Logits: []float64{0.1, 0.7, 0.2}, Class: 1, Batch: 0},
		"batch 9":      {Logits: []float64{0.1, 0.7, 0.2}, Class: 1, Batch: 9},
	} {
		if err := checkAnswer(bad, 3, 8); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
