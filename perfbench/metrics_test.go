package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program prints
// in step: the same names, units and order.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, s := range specs {
		if b.Workloads[i].Name != s.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, b.Workloads[i].Name, s.name)
		}
	}
}
