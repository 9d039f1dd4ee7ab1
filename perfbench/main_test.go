package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the subset of ../BENCHMARK.json the runs must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkFile runs the fastest workload untraced and
// traced and checks that each prints exactly the metrics BENCHMARK.json
// declares, in order and with their units, and that every check passes
// (including the traced composition's equivalence with cosim).
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	s, err := specByName("mac-testbed50")
	if err != nil {
		t.Fatal(err)
	}
	measured, err := runMeasured(s, defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTraced(s, defaultSeed, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		res  *result
		want []struct{ Name, Unit string }
	}{{"end_to_end", measured, bf.EndToEnd}, {"per_layer", traced, bf.PerLayer}} {
		if c.res.failed != 0 {
			t.Errorf("%s run: %d checks failed: %v", c.name, c.res.failed, c.res.failures)
		}
		if len(c.res.metrics) != len(c.want) {
			t.Fatalf("%s: run reports %d metrics, BENCHMARK.json declares %d", c.name, len(c.res.metrics), len(c.want))
		}
		for i, m := range c.res.metrics {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: run reports %s (%s), BENCHMARK.json declares %s (%s)",
					c.name, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
