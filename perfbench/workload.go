package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/cluster"
	"capnn/internal/exp"
	"capnn/internal/serve"
	"capnn/internal/workload"
)

// spec is one benchmark workload: a trace shape and how it is driven.
// Every key users claim at the start of the trace is personalized and
// compiled during set-up.
type spec struct {
	name  string
	drift string // workload.ParseDrift syntax; "" is stationary
	// rate is the open-loop arrival rate (requests/s).
	rate float64
	// capacityShare of the measured time runs closed-loop with
	// capacityInflight requests outstanding, replaying the open-loop
	// requests (whose keys are warm by then) in order.
	capacityShare float64
	// slo is the latency limit of slo_attainment.
	slo time.Duration
}

const (
	// users is the workloads' population: zipf (s=1.2) over 16 users.
	users = 16
	// population seeds who the users are and what they prefer. It is
	// fixed so that runs differ only in which stretch of the trace they
	// replay; a run's seed picks the stretch (see traceSource.segment).
	population = 1
	// capacityInflight is the closed loop's outstanding request count.
	capacityInflight = 16
	// maxInflight caps outstanding open-loop requests; a request due
	// while the cap is reached is not sent and counts as failed.
	maxInflight = 256
)

var specs = map[string]spec{
	// hot's limit is about four times its median: a serving path several
	// times slower shows, a host in a slow stretch does not. drift's
	// covers reads beside heals but not a wait on a cold start.
	"hot":   {name: "hot", rate: 100, capacityShare: 0.3, slo: 20 * time.Millisecond},
	"drift": {name: "drift", drift: "flip=12000,lag=3000", rate: 150, capacityShare: 0.2, slo: 50 * time.Millisecond},
}

// event is one scheduled request with the trace facts the checks need.
type event struct {
	ev  workload.Event
	key string // gateway placement key
	req serve.WireRequest
}

// traceSource turns trace indices into wire requests the way
// capnn-loadgen -workload zipf does: class-c events replay test image
// pool[c][index mod len].
type traceSource struct {
	model *workload.Model
	fx    *exp.Fixture
	pools [][]int
}

// newTraceSource builds sp's trace model.
func newTraceSource(sp spec, fx *exp.Fixture) (*traceSource, error) {
	dc, err := workload.ParseDrift(sp.drift)
	if err != nil {
		return nil, err
	}
	cfg := fx.Config
	m, err := workload.NewModel(workload.Config{Users: users, Classes: cfg.Synth.Classes,
		Groups: cfg.Synth.ClassGroups(), ZipfS: 1.2, Drift: dc, Seed: population})
	if err != nil {
		return nil, err
	}
	return &traceSource{model: m, fx: fx, pools: fx.Sets.Test.ByClass()}, nil
}

// segment is where seed's stretch of the trace starts: event seed<<32,
// moved back to the start of its flip cycle when the trace drifts. Every
// stretch of a drifting trace then begins at the same point of each
// user's cycle, so seeds differ in arrivals but not in how much of the
// stretch lies in drift windows, which sets top1 and the heal load.
func (t *traceSource) segment(seed int64) uint64 {
	first := uint64(seed) << 32
	if fe := t.model.Config().Drift.FlipEvery; fe > 0 {
		first -= first % fe
	}
	return first
}

// build attaches event ev's input image and placement key.
func (t *traceSource) build(ev workload.Event) (event, error) {
	img := t.image(ev.Class, ev.Index)
	req := serve.WireRequest{Version: cloud.ProtocolVersion, Variant: "M",
		Classes: ev.Prefs.Classes, Weights: ev.Prefs.Weights, Input: img}
	key, err := cluster.RouteKey(req)
	if err != nil {
		return event{}, fmt.Errorf("event %d: %w", ev.Index, err)
	}
	return event{ev: ev, key: key, req: req}, nil
}

// replay is e sent again in round r: the same user and key with the
// next image of its class, so repeated requests still sample the test
// pool.
func (t *traceSource) replay(e event, r uint64) event {
	if r > 0 {
		e.req.Input = t.image(e.ev.Class, e.ev.Index+r)
	}
	return e
}

// image is test image pool[class][i mod len], a read-only view shared
// by every request that sends it.
func (t *traceSource) image(class int, i uint64) []float64 {
	pool := t.pools[class]
	return t.fx.Sets.Test.Image(pool[int(i%uint64(len(pool)))])
}

// schedule materializes events [from, from+n) before the clock starts,
// so the sender only sleeps and dispatches. It also reports the mean
// Model.At cost in microseconds.
func (t *traceSource) schedule(from uint64, n int) ([]event, float64, error) {
	out := make([]event, n)
	var genNs time.Duration
	for i := range out {
		t0 := time.Now()
		ev := t.model.At(from + uint64(i))
		genNs += time.Since(t0)
		e, err := t.build(ev)
		if err != nil {
			return nil, 0, err
		}
		out[i] = e
	}
	return out, ratio(float64(genNs)/1e3, float64(n)), nil
}

// answer is what came back for one request; resp is nil when the
// request was never sent (over the in-flight cap).
type answer struct {
	resp       *serve.WireResponse
	start, end time.Time
}

// routeFn sends one request, the seq-th of the measured phase; the
// traced run wraps Gateway.Route with a span recorder.
type routeFn func(seq uint64, e *event) *serve.WireResponse

// openLoop sends events on a fixed schedule at rate, from the moment
// start, capping outstanding requests at maxInflight. Each latency is
// measured from the request's due time. It waits for every sent request
// (the gateway bounds each by its request timeout) and returns the
// answers plus each request's sending lateness.
func openLoop(events []event, rate float64, maxInflight int, route routeFn) ([]answer, []time.Duration) {
	answers := make([]answer, len(events))
	late := make([]time.Duration, len(events))
	interval := time.Duration(float64(time.Second) / rate)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := range events {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		answers[i].start = due
		if inflight.Load() >= int64(maxInflight) {
			answers[i].end = time.Now()
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer inflight.Add(-1)
			answers[i].resp = route(uint64(i), &events[i])
			answers[i].end = time.Now()
		}(i)
	}
	wg.Wait()
	return answers, late
}

// closedLoop keeps inflight requests outstanding for d, replaying
// events cyclically (see traceSource.replay), and returns what it sent,
// the answers, and the phase's wall time. Sequence numbers continue
// from seq0.
func closedLoop(src *traceSource, events []event, seq0 uint64, inflight int, d time.Duration, route routeFn) ([]event, []answer, time.Duration) {
	var next atomic.Uint64
	var mu sync.Mutex
	var sent []event
	var answers []answer
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				j := next.Add(1) - 1
				n := uint64(len(events))
				e := src.replay(events[j%n], j/n)
				a := answer{start: time.Now()}
				a.resp = route(seq0+j, &e)
				a.end = time.Now()
				mu.Lock()
				sent = append(sent, e)
				answers = append(answers, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sent, answers, time.Since(start)
}

// outcomes classifies answers for the latency statistics.
func outcomes(answers []answer) []outcome {
	out := make([]outcome, len(answers))
	for i, a := range answers {
		ok := a.resp != nil && a.resp.Code == cloud.CodeOK
		out[i] = outcome{ok: ok, latency: a.end.Sub(a.start)}
	}
	return out
}
