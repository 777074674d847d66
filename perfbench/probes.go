package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/nn"
	"capnn/internal/serve"
	"capnn/internal/tensor"
	"capnn/internal/workload"
)

// The core probes personalize the first keys of a fixed trace over a
// large population (one user's key each: the cold-start mix of a
// service with many users), so every run and every workload probes the
// same work.
const (
	probeSeed  = 1
	probeUsers = 1_000_000
)

// probe runs the traced run's single-layer probes: routing against the
// live cluster, then (cluster stopped) the inference engines on the
// hottest hot key's masks and personalization on a fixed cold sample.
func probe(rec *recorder, c *testCluster, ref *exp.Fixture, events []event, m map[string]float64) error {
	hot := firstN(startKeys(events), refKeys)
	routeUs, err := routeProbe(rec, c, hot, 200)
	if err != nil {
		return err
	}
	m["cluster.route_us"] = routeUs
	keys := make([]string, 0, len(events))
	for _, e := range events {
		keys = append(keys, e.key)
	}
	m["cluster.ring_lookup_ns"] = ringProbe(rec, c, keys)
	c.stop()

	src, err := newTraceSource(specs["hot"], ref)
	if err != nil {
		return err
	}
	hotEvents, _, err := src.schedule(0, 2000)
	if err != nil {
		return err
	}
	top := startKeys(hotEvents)[0]
	prefs, err := prefsOf(top.req)
	if err != nil {
		return err
	}
	masks, err := ref.Sys.Prune(core.VariantM, prefs)
	if err != nil {
		return err
	}
	shape := append([]int{1}, ref.Net.InShape...)
	x1 := tensor.MustFromSlice(append([]float64(nil), top.req.Input...), shape...)
	x8, _ := ref.Sets.Test.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	nnm, err := nnProbes(rec, ref.Net, masks, x1, x8)
	if err != nil {
		return err
	}
	for k, v := range nnm {
		m[k] = v
	}
	cm, err := coreProbes(rec, ref.Sys, ref.Config.Synth.Classes, ref.Config.Synth.ClassGroups())
	if err != nil {
		return err
	}
	for k, v := range cm {
		m[k] = v
	}
	return nil
}

// callCost runs f n times and returns the median wall time per call in
// milliseconds plus heap allocations and bytes per call.
func callCost(r *recorder, name string, n int, f func()) (medianMs, allocs, bytes float64) {
	times := make([]float64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range times {
		start := time.Now()
		r.timed(name, uint64(i), f)
		times[i] = ms(time.Since(start))
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(times)
	return times[n/2], float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// nnProbes times the inference engines on one key's masks: compiled at
// batch 1 and 8, masked (Network.Infer), unpruned (Network.Forward), and
// nn.Compile itself.
func nnProbes(r *recorder, net *nn.Network, masks map[int][]bool, x1, x8 *tensor.Tensor) (map[string]float64, error) {
	comp, err := nn.Compile(net, masks)
	if err != nil {
		return nil, fmt.Errorf("compile probe: %w", err)
	}
	out := map[string]float64{}
	put := func(name string, n int, f func()) {
		t, allocs, _ := callCost(r, name, n, f)
		out[name+"_ms"] = t
		out[name+"_allocs"] = allocs
	}
	put("nn.compiled_b1", 50, func() { comp.Infer(x1) })
	put("nn.compiled_b8", 20, func() { comp.Infer(x8) })
	put("nn.masked_b1", 50, func() { net.Infer(x1, masks) })
	put("nn.unpruned_b1", 50, func() { net.Forward(x1) })
	var cerr error
	put("nn.compile", 5, func() {
		if _, err := nn.Compile(net, masks); err != nil {
			cerr = err
		}
	})
	return out, cerr
}

// coreProbes personalizes a fixed sample of cold keys on an idle System
// and replays the suffix evaluator.
func coreProbes(r *recorder, sys *core.System, classes int, groups []int) (map[string]float64, error) {
	m, err := workload.NewModel(workload.Config{Users: probeUsers, Classes: classes,
		Groups: groups, ZipfS: 1.2, Seed: probeSeed})
	if err != nil {
		return nil, err
	}
	var sample []core.Preferences
	seen := map[string]bool{}
	for i := uint64(0); len(sample) < 3; i++ {
		ev := m.At(i)
		if k := ev.Prefs.Key(); !seen[k] {
			seen[k] = true
			sample = append(sample, ev.Prefs)
		}
	}
	var perr error
	i := 0
	pruneMs, _, pruneBytes := callCost(r, "core.prune", len(sample), func() {
		if _, err := sys.Prune(core.VariantM, sample[i]); err != nil {
			perr = err
		}
		i++
	})
	if perr != nil {
		return nil, fmt.Errorf("prune probe: %w", perr)
	}
	suffixMs, _, _ := callCost(r, "core.suffix_eval", 10, func() { sys.Eval.PerClassAccuracy() })
	return map[string]float64{
		"core.prune_ms":       pruneMs,
		"core.prune_mb":       pruneBytes / (1 << 20),
		"core.suffix_eval_ms": suffixMs,
	}, nil
}

// routeProbe sends warm requests one at a time, alternating Gateway.Route
// with Server.Handle on the key's owner, and returns the median gateway
// overhead in microseconds: what routing adds on top of serving.
func routeProbe(r *recorder, c *testCluster, events []event, n int) (float64, error) {
	var viaGW, direct []float64
	for i := 0; i < n; i++ {
		e := events[i%len(events)]
		owner := c.owner(e.key)
		if owner == nil {
			return 0, fmt.Errorf("no owner for %s", e.key)
		}
		var resp *serve.WireResponse
		start := time.Now()
		r.timed("cluster.route", uint64(i), func() { resp = c.gw.Route(e.req) })
		viaGW = append(viaGW, float64(time.Since(start).Microseconds()))
		if err := okResp(resp); err != nil {
			return 0, err
		}
		start = time.Now()
		r.timed("serve.handle", uint64(i), func() { resp = owner.srv.Handle(e.req) })
		direct = append(direct, float64(time.Since(start).Microseconds()))
		if err := okResp(resp); err != nil {
			return 0, err
		}
	}
	sort.Float64s(viaGW)
	sort.Float64s(direct)
	return viaGW[n/2] - direct[n/2], nil
}

func okResp(resp *serve.WireResponse) error {
	if resp == nil || resp.Code != cloud.CodeOK {
		return fmt.Errorf("probe request failed: %+v", resp)
	}
	return nil
}

// ringProbe times Ring.LookupInto over the trace's placement keys.
func ringProbe(r *recorder, c *testCluster, keys []string) float64 {
	ring := c.gw.Ring()
	var dst [2]string
	const rounds = 200_000
	start := time.Now()
	r.timed("cluster.ring_lookup", 0, func() {
		for i := 0; i < rounds; i++ {
			ring.LookupInto(keys[i%len(keys)], dst[:])
		}
	})
	return float64(time.Since(start).Nanoseconds()) / rounds
}
