package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric lists in step with what the benchmark measures and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(doc.Workloads), len(specs))
	}
	for _, w := range doc.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("workload %q is not defined", w.Name)
		}
	}
	check := func(list string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", list, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}
