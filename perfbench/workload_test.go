package main

import (
	"testing"

	"capnn/internal/workload"
)

// TestSegmentStartsAtFlipCycle checks that every seed's stretch of a
// drifting trace starts at a flip-cycle boundary, so each replays the
// same point of every user's cycle, and that a stationary trace starts
// where the seed says.
func TestSegmentStartsAtFlipCycle(t *testing.T) {
	source := func(drift string) *traceSource {
		dc, err := workload.ParseDrift(drift)
		if err != nil {
			t.Fatal(err)
		}
		m, err := workload.NewModel(workload.Config{Users: users, Classes: 10, ZipfS: 1.2, Drift: dc, Seed: population})
		if err != nil {
			t.Fatal(err)
		}
		return &traceSource{model: m}
	}
	hot, drift := source(specs["hot"].drift), source(specs["drift"].drift)
	fe := drift.model.Config().Drift.FlipEvery
	if fe == 0 {
		t.Fatal("the drift workload does not flip")
	}
	seen := map[uint64]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		if got := hot.segment(seed); got != uint64(seed)<<32 {
			t.Errorf("hot seed %d starts at %d, want %d", seed, got, uint64(seed)<<32)
		}
		got := drift.segment(seed)
		if got%fe != 0 || got > uint64(seed)<<32 || uint64(seed)<<32-got >= fe {
			t.Errorf("drift seed %d starts at %d, not the start of its flip cycle (%d events)", seed, got, fe)
		}
		if seen[got] {
			t.Errorf("drift seed %d replays the stretch of an earlier seed", seed)
		}
		seen[got] = true
	}
}
