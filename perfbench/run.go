package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/cluster"
	"capnn/internal/core"
	"capnn/internal/exp"
	"capnn/internal/serve"
	"capnn/internal/tensor"
	"capnn/internal/workload"
)

const (
	// setupReps is how many times a run builds the cluster; setup_s takes
	// the median build plus the one warm-up.
	setupReps = 3
	// refKeys is how many of the busiest users' keys are checked
	// bit-for-bit against an independent System.
	refKeys = 3
	// outDir holds run reports, trace digests and span files.
	outDir = ".bench_build/perfbench"
	// Generator validity. The sender shares the cluster's cores, so it
	// wakes a few milliseconds late under load; requests are timed from
	// their due time, which charges that jitter to latency as a stall
	// would. A run whose typical send is later than maxLateP50, or whose
	// sender stalled for maxLate, fell behind its schedule: it is invalid
	// rather than slow.
	maxLateP50 = 2 * time.Millisecond
	maxLate    = time.Second
)

// fixtureModel is the cached cifar10 model exp.Load reads, named the way
// exp names it (FNV-1a of the config without ε).
func fixtureModel() string {
	cfg := exp.CIFAR10Config()
	cfg.Epsilon = 0
	h := uint64(1469598103934665603)
	for _, b := range []byte(fmt.Sprintf("%+v", cfg)) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return filepath.Join("testdata", "fixtures", fmt.Sprintf("%s-%016x.model", cfg.Name, h))
}

// firstAnswer is a served answer kept for the reference check.
type firstAnswer struct {
	e    event
	resp *serve.WireResponse
}

// report is everything a run measured, kept under outDir.
type report struct {
	Stamp    map[string]any     `json:"stamp"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    traceDigest        `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

func run(sp spec, seed int64, seconds time.Duration, traced bool) (result, error) {
	model := fixtureModel()
	if _, err := os.Stat(model); err != nil {
		return result{}, fmt.Errorf("fixture %s is missing, so exp.Load would train cifar10 from scratch; run from the repository root of a full checkout", model)
	}
	st := stamp()
	st["fixtures"] = []string{filepath.Base(model)}
	st["serve_config"] = fmt.Sprintf("%+v", serveConfig())
	st["gateway_config"] = fmt.Sprintf("%+v", gatewayConfig())
	st["commit"] = os.Getenv("PERFBENCH_COMMIT")
	st["workload"] = fmt.Sprintf("%s: users=%d population=%d drift=%q rate=%v/s capacity-share=%v slo=%v",
		sp.name, users, population, sp.drift, sp.rate, sp.capacityShare, sp.slo)
	if b, err := json.Marshal(st); err == nil {
		fmt.Fprintf(os.Stderr, "perfbench: stamp %s\n", b)
	}

	// The reference fixture is an independent System: it supplies trace
	// images, the reference answers and the probes' idle network.
	ref, err := exp.Load(exp.CIFAR10Config(), nil)
	if err != nil {
		return result{}, err
	}
	src, err := newTraceSource(sp, ref)
	if err != nil {
		return result{}, err
	}
	openDur := time.Duration(float64(seconds) * (1 - sp.capacityShare))
	n := int(sp.rate * openDur.Seconds())
	first := src.segment(seed)
	events, eventUs, err := src.schedule(first, n)
	if err != nil {
		return result{}, err
	}
	dg := digest(events)
	if err := checkDeterminism(sp, seed, first, src.model, dg); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d scheduled events, %d users, %d keys, drift share %.3f, fnv64a %s\n",
		sp.name, seed, dg.Events, dg.Users, dg.Keys, dg.Drifted, dg.Hash)

	c, setupS, firsts, err := setUp(events)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer c.stop()

	var rec *recorder
	if traced {
		rec = newRecorder(n + 32*1024)
	}
	route := func(seq uint64, e *event) *serve.WireResponse {
		if rec == nil {
			return c.gw.Route(e.req)
		}
		start := time.Now()
		resp := c.gw.Route(e.req)
		rec.add(span{ID: e.ev.Index, Seq: seq, Name: "gateway.route", StartNs: rec.since(start), EndNs: rec.since(time.Now()),
			Key: e.key, Code: resp.Code.String(), Hit: resp.CacheHit, Batch: resp.Batch, Fallback: resp.Fallback})
		return resp
	}

	// The measured phase: open loop, then closed loop over the same,
	// now warm, requests.
	before, gwBefore := c.snap(), c.gw.Stats()
	phaseStart := time.Now()
	answers, late := openLoop(events, sp.rate, maxInflight, route)
	capEvents, capAnswers, capElapsed := closedLoop(src, events, uint64(n), capacityInflight, seconds-openDur, route)
	phase := time.Since(phaseStart)
	after, gwAfter := c.snap(), c.gw.Stats()

	// top1 is over the open loop's answers, a fixed set of events per
	// seed; how many closed-loop replays fit in a run, and so which
	// events they repeat, depends on the host's speed.
	failed, top1, err := checkAnswers(events, answers, ref.Config.Synth.Classes)
	if err != nil {
		return result{}, err
	}
	capFailed, _, err := checkAnswers(capEvents, capAnswers, ref.Config.Synth.Classes)
	if err != nil {
		return result{}, err
	}
	failed += capFailed
	attempted := len(answers) + len(capAnswers)
	if err := checkReferences(ref, firstN(startKeys(events), refKeys), firsts); err != nil {
		return result{}, err
	}

	m, err := endToEnd(outcomes(answers), sp.slo)
	if err != nil {
		return result{}, err
	}
	m["setup_s"] = setupS
	m["capacity_rps"] = ratio(float64(countOK(capAnswers)), capElapsed.Seconds())
	m["top1"] = top1
	m["failed_frac"] = ratio(float64(failed), float64(attempted))

	lateErr := lateness(late, m)
	m["workload.event_us"] = eventUs

	for k, v := range serveLayer(before, after) {
		m[k] = v
	}
	for k, v := range gatewayLayer(gwBefore, gwAfter) {
		m[k] = v
	}
	if traced {
		spans := float64(len(rec.spans))
		cost := spanCostNs(10000)
		m["trace.span_cost_ns"] = cost
		m["trace.overhead_pct"] = 100 * spans * cost / (float64(phase.Nanoseconds()) * float64(runtime.GOMAXPROCS(0)))
		if err := probe(rec, c, ref, events, m); err != nil {
			return result{}, err
		}
		if err := rec.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", sp.name, seed))); err != nil {
			return result{}, err
		}
		compareUntraced(sp, seed, m)
	}
	if err := writeReport(sp, seed, traced, report{Stamp: st, Workload: sp.name, Seed: seed, Trace: dg, Metrics: m}); err != nil {
		return result{}, err
	}
	res := result{Correct: true, Attempted: attempted, Failed: failed}
	if res.Metrics, err = export(m, traced); err != nil {
		return result{}, err
	}
	if lateErr != nil {
		return result{}, lateErr
	}
	return res, nil
}

// checkAnswers verifies every OK answer is well formed and returns the
// failed count and the share of OK answers naming the input's class.
func checkAnswers(events []event, answers []answer, classes int) (failed int, top1 float64, err error) {
	ok, correct := 0, 0
	for i, a := range answers {
		e := events[i]
		if a.resp == nil || a.resp.Code != cloud.CodeOK {
			failed++
			continue
		}
		if err := checkAnswer(a.resp, classes, serveConfig().MaxBatch); err != nil {
			return 0, 0, fmt.Errorf("answer for event %d (key %s): %w", e.ev.Index, e.key, err)
		}
		ok++
		if a.resp.Class == e.ev.Class {
			correct++
		}
	}
	return failed, ratio(float64(correct), float64(ok)), nil
}

// lateness records how late the open-loop sender ran and returns an
// error when it fell behind its schedule, which makes the run invalid.
func lateness(late []time.Duration, m map[string]float64) error {
	lateMs := make([]float64, len(late))
	for i, l := range late {
		lateMs[i] = ms(l)
	}
	sort.Float64s(lateMs)
	p50, _ := percentile(lateMs, 0.50)
	p99, _ := percentile(lateMs, 0.99)
	max := lateMs[len(lateMs)-1]
	m["workload.lateness_p99_ms"] = p99
	m["workload.lateness_max_ms"] = max
	if p50 > ms(maxLateP50) || max > ms(maxLate) {
		return fmt.Errorf("invalid run: the generator fell behind its schedule (lateness p50 %.2f ms, p99 %.2f ms, max %.2f ms)", p50, p99, max)
	}
	return nil
}

// endToEnd computes the latency metrics of the open-loop phase. A
// percentile the sample cannot support fails the run.
func endToEnd(outs []outcome, slo time.Duration) (map[string]float64, error) {
	lat := latencies(outs)
	p50, ok50 := percentile(lat, 0.50)
	p99, ok99 := percentile(lat, 0.99)
	if !ok50 || !ok99 {
		return nil, fmt.Errorf("%d requests cannot support a p99: at least %d must lie beyond it", len(lat), minBeyond)
	}
	return map[string]float64{
		"p50_ms":         p50,
		"tail_ms":        p99,
		"slo_attainment": attainment(outs, slo),
	}, nil
}

func countOK(answers []answer) int {
	n := 0
	for _, a := range answers {
		if a.resp != nil && a.resp.Code == cloud.CodeOK {
			n++
		}
	}
	return n
}

// setUp builds the cluster setupReps times, keeping the last, then
// personalizes every key users claim at the start of the schedule,
// busiest user first, and waits for their compiles. It returns the
// median build time plus the warm-up time, and the warm-up's answers
// for the reference check: each key's first answer and, once compiled,
// a second one for the busiest users' keys.
func setUp(events []event) (*testCluster, float64, map[string][]firstAnswer, error) {
	var c *testCluster
	builds := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			c.stop()
		}
		start := time.Now()
		var err error
		if c, err = startCluster(); err != nil {
			return nil, 0, nil, err
		}
		builds = append(builds, time.Since(start).Seconds())
	}
	sort.Float64s(builds)
	firsts := map[string][]firstAnswer{}
	start := time.Now()
	keys := startKeys(events)
	send := func(e event) error {
		resp := c.gw.Route(e.req)
		if err := okResp(resp); err != nil {
			return fmt.Errorf("warm-up %s: %w", e.key, err)
		}
		firsts[e.key] = append(firsts[e.key], firstAnswer{e: e, resp: resp})
		return nil
	}
	for _, e := range keys {
		if err := send(e); err != nil {
			c.stop()
			return nil, 0, nil, err
		}
	}
	if err := c.compileWait(2 * time.Minute); err != nil {
		c.stop()
		return nil, 0, nil, err
	}
	warm := time.Since(start).Seconds()
	for _, e := range firstN(keys, refKeys) {
		if err := send(e); err != nil {
			c.stop()
			return nil, 0, nil, err
		}
	}
	return c, builds[len(builds)/2] + warm, firsts, nil
}

// firstN is events[:n], or all of events when there are fewer.
func firstN(events []event, n int) []event { return events[:min(n, len(events))] }

// startKeys is each user's first event in events, busiest user first:
// the keys users claim when the run starts, which a warm cluster holds.
// Keys a drifting user claims later stay cold.
func startKeys(events []event) []event {
	count := map[uint64]int{}
	var order []event
	for _, e := range events {
		if count[e.ev.User] == 0 {
			order = append(order, e)
		}
		count[e.ev.User]++
	}
	sort.SliceStable(order, func(i, j int) bool { return count[order[i].ev.User] > count[order[j].ev.User] })
	return order
}

// prefsOf is the preference vector a shard derives from a request.
func prefsOf(req serve.WireRequest) (core.Preferences, error) {
	p, err := core.Weighted(req.Classes, req.Weights)
	if err != nil {
		return p, err
	}
	p.Normalize()
	return p, nil
}

// checkReferences personalizes each key on the independent reference
// System and checks every kept answer for it bit-for-bit.
func checkReferences(ref *exp.Fixture, keys []event, firsts map[string][]firstAnswer) error {
	checked := 0
	for _, k := range keys {
		answers := firsts[k.key]
		if len(answers) == 0 {
			continue
		}
		prefs, err := prefsOf(k.req)
		if err != nil {
			return err
		}
		masks, err := ref.Sys.Prune(core.VariantM, prefs)
		if err != nil {
			return fmt.Errorf("reference personalization %s: %w", k.key, err)
		}
		for _, a := range answers {
			x := tensor.MustFromSlice(append([]float64(nil), a.e.req.Input...), append([]int{1}, ref.Net.InShape...)...)
			pruned := ref.Net.Infer(x, masks).Data()
			unpruned := ref.Net.Forward(x).Data()
			if err := checkReference(a.resp.Logits, a.resp.Fallback, pruned, unpruned); err != nil {
				return fmt.Errorf("reference check, key %s event %d: %w", k.key, a.e.ev.Index, err)
			}
			checked++
		}
	}
	if checked == 0 {
		return errors.New("reference check: no answer to check")
	}
	fmt.Fprintf(os.Stderr, "perfbench: reference check: %d answers of %d keys bit-match\n", checked, len(keys))
	return nil
}

// checkDeterminism re-derives the schedule in reverse order from a fresh
// model and compares digests, then compares against the digest an
// earlier run with the same workload, seed and length stored.
func checkDeterminism(sp spec, seed int64, first uint64, m *workload.Model, dg traceDigest) error {
	fresh, err := workload.NewModel(m.Config())
	if err != nil {
		return err
	}
	h := make([]event, dg.Events)
	for i := len(h) - 1; i >= 0; i-- {
		ev := fresh.At(first + uint64(i))
		req := serve.WireRequest{Variant: "M", Classes: ev.Prefs.Classes, Weights: ev.Prefs.Weights}
		key, err := cluster.RouteKey(req)
		if err != nil {
			return err
		}
		h[i] = event{ev: ev, key: key}
	}
	if again := digest(h); again != dg {
		return fmt.Errorf("trace is not deterministic: %+v then %+v", dg, again)
	}
	path := filepath.Join(outDir, "trace-digests.json")
	stored := map[string]traceDigest{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &stored); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	id := fmt.Sprintf("%s/population%d/seed%d/first%d/events%d", sp.name, population, seed, first, dg.Events)
	if prev, ok := stored[id]; ok {
		if prev != dg {
			return fmt.Errorf("trace %s differs from an earlier run with the same seed: %+v, earlier %+v", id, dg, prev)
		}
		return nil
	}
	stored[id] = dg
	return writeJSON(path, stored)
}

func reportPath(sp spec, seed int64, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", sp.name, seed, t))
}

func writeReport(sp spec, seed int64, traced bool, r report) error {
	return writeJSON(reportPath(sp, seed, traced), r)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
