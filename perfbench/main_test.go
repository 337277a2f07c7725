package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run prints and the
// ones BENCHMARK.json declares the same, in name, unit and order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metricSpec
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEndMetrics, spec.EndToEnd}, {"per_layer", perLayerMetrics, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", c.what, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)",
					c.what, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
	ws := workloads()
	if len(ws) != len(spec.Workload) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(ws), len(spec.Workload))
	}
	for _, w := range spec.Workload {
		if _, ok := ws[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
}
