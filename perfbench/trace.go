package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Request spans carry the trace index as ID and their
// position in the measured phase as Seq (the closed loop replays trace
// events); probe spans number their calls.
type span struct {
	ID       uint64 `json:"id"`
	Seq      uint64 `json:"seq"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the recorder's origin
	EndNs    int64  `json:"end_ns"`
	Key      string `json:"key,omitempty"`
	Code     string `json:"code,omitempty"`
	Hit      bool   `json:"hit,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	Fallback bool   `json:"fallback,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run stays untraced.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// since is t's offset from the origin in nanoseconds.
func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// timed runs f and records it as a span named name.
func (r *recorder) timed(name string, id uint64, f func()) {
	if r == nil {
		f()
		return
	}
	start := time.Now()
	f()
	r.add(span{ID: id, Name: name, StartNs: r.since(start), EndNs: r.since(time.Now())})
}

// write stores the spans as one JSON document at path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanCostNs measures what recording one request span costs, by
// recording n spans into a throwaway recorder.
func spanCostNs(n int) float64 {
	r := newRecorder(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		r.add(span{ID: uint64(i), Name: "gateway.route", StartNs: r.since(t), EndNs: r.since(time.Now())})
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
